package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// This file is the benchmark's own speaker of the two protocols, written
// from docs/COMMANDS.md (text grammar) and docs/WIRE-PROTOCOL.md (frame
// layout) and sharing no code with internal/kv or internal/wire: an
// instrument that imported the codec under test would change with it.

// Binary protocol constants (docs/WIRE-PROTOCOL.md).
const (
	magicReq    = 0xF2
	magicResp   = 0xF3
	wireVersion = 2
	hdrLen      = 12
	opHdrLen    = 8

	codeGet  = 0x01
	codeSet  = 0x02
	codeScan = 0x04

	stStored   = 0x01
	stValue    = 0x02
	stNotFound = 0x03
	stEntries  = 0x06
)

// beginFrame starts a request frame in dst; endFrame patches the header once
// the operations are appended.
func beginFrame(dst []byte) []byte {
	return append(dst, magicReq, wireVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
}

func endFrame(frame []byte, ops int) {
	binary.LittleEndian.PutUint32(frame[4:], uint32(len(frame)-hdrLen))
	binary.LittleEndian.PutUint32(frame[8:], uint32(ops))
}

func appendOpHeader(dst []byte, code byte, keyLen, valLen int) []byte {
	var h [opHdrLen]byte
	h[0] = code
	binary.LittleEndian.PutUint16(h[2:], uint16(keyLen))
	binary.LittleEndian.PutUint32(h[4:], uint32(valLen))
	return append(dst, h[:]...)
}

// appendBinaryOp appends o to a request frame. A scan's value is
// [u32 limit] plus an empty end key (unbounded).
func appendBinaryOp(dst []byte, o op, conn byte) []byte {
	switch o.kind {
	case opGet:
		return appendKey(appendOpHeader(dst, codeGet, keyLen, 0), o.key)
	case opSet:
		dst = appendKey(appendOpHeader(dst, codeSet, keyLen, valueLen), o.key)
		return appendValue(dst, o.key, conn, o.seq)
	default:
		dst = appendKey(appendOpHeader(dst, codeScan, keyLen, 4), o.key)
		return binary.LittleEndian.AppendUint32(dst, uint32(o.limit))
	}
}

// appendTextOp appends o as a text-protocol request line (plus payload).
func appendTextOp(dst []byte, o op, conn byte) []byte {
	switch o.kind {
	case opGet:
		return append(appendKey(append(dst, "get "...), o.key), "\r\n"...)
	case opSet:
		dst = appendKey(append(dst, "set "...), o.key)
		dst = append(strconv.AppendInt(append(dst, ' '), valueLen, 10), "\r\n"...)
		return append(appendValue(dst, o.key, conn, o.seq), "\r\n"...)
	default:
		panic("benchmark: no workload scans over the text protocol")
	}
}

// result is one operation's reply in either protocol, reduced to the binary
// protocol's status codes. value aliases the connection's read buffer and is
// valid until the next read.
type result struct {
	status byte
	key    []byte // text VALUE replies echo the key
	value  []byte // stValue: the value; stEntries: the entries blob
}

var errProtocol = errors.New("reply violates the protocol")

// conn is one client connection with its byte counters.
type conn struct {
	c      net.Conn
	r      *bufio.Reader
	tx, rx uint64
	buf    []byte // response payload / text value scratch
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

func (c *conn) write(b []byte) error {
	c.tx += uint64(len(b))
	_, err := c.c.Write(b)
	return err
}

// readFrame reads one response frame and returns its result count and
// payload (valid until the next read).
func (c *conn) readFrame() (int, []byte, error) {
	var h [hdrLen]byte
	if _, err := io.ReadFull(c.r, h[:]); err != nil {
		return 0, nil, err
	}
	if h[0] != magicResp || h[1] != wireVersion || h[2] != 0 || h[3] != 0 {
		return 0, nil, fmt.Errorf("%w: response header % x", errProtocol, h[:4])
	}
	n := int(binary.LittleEndian.Uint32(h[4:]))
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	c.buf = c.buf[:n]
	if _, err := io.ReadFull(c.r, c.buf); err != nil {
		return 0, nil, err
	}
	c.rx += uint64(hdrLen + n)
	return int(binary.LittleEndian.Uint32(h[8:])), c.buf, nil
}

// nextResult splits the first result off a response payload.
func nextResult(payload []byte) (result, []byte, error) {
	if len(payload) < opHdrLen {
		return result{}, nil, fmt.Errorf("%w: truncated result header", errProtocol)
	}
	n := int(binary.LittleEndian.Uint32(payload[4:]))
	if len(payload) < opHdrLen+n {
		return result{}, nil, fmt.Errorf("%w: truncated result value", errProtocol)
	}
	return result{status: payload[0], value: payload[opHdrLen : opHdrLen+n]}, payload[opHdrLen+n:], nil
}

// eachEntry walks a StatusEntries blob: [u32 count] then per entry
// [u16 klen][u32 vlen][key][value].
func eachEntry(blob []byte, fn func(key, value []byte)) error {
	if len(blob) < 4 {
		return fmt.Errorf("%w: entries blob without a count", errProtocol)
	}
	count := int(binary.LittleEndian.Uint32(blob))
	blob = blob[4:]
	for i := 0; i < count; i++ {
		if len(blob) < 6 {
			return fmt.Errorf("%w: truncated entry header", errProtocol)
		}
		kl, vl := int(binary.LittleEndian.Uint16(blob)), int(binary.LittleEndian.Uint32(blob[2:]))
		if len(blob) < 6+kl+vl {
			return fmt.Errorf("%w: truncated entry", errProtocol)
		}
		fn(blob[6:6+kl], blob[6+kl:6+kl+vl])
		blob = blob[6+kl+vl:]
	}
	if len(blob) != 0 {
		return fmt.Errorf("%w: %d bytes after the last entry", errProtocol, len(blob))
	}
	return nil
}

// readLine reads one CRLF-terminated reply line (without the CRLF).
func (c *conn) readLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	c.rx += uint64(len(line))
	return bytes.TrimRight(line, "\r\n"), nil
}

// readTextReply reads the reply to one text get or set: "STORED", a bare
// "END" (miss), or one VALUE block followed by "END".
func (c *conn) readTextReply() (result, error) {
	line, err := c.readLine()
	if err != nil {
		return result{}, err
	}
	switch {
	case string(line) == "STORED":
		return result{status: stStored}, nil
	case string(line) == "END":
		return result{status: stNotFound}, nil
	case bytes.HasPrefix(line, []byte("VALUE ")):
		rest := line[len("VALUE "):]
		sp := bytes.LastIndexByte(rest, ' ')
		if sp < 0 {
			break
		}
		n, err := strconv.Atoi(string(rest[sp+1:]))
		if err != nil || n < 0 || n > 1<<20 {
			break
		}
		// key and value share the scratch buffer: the VALUE line lives in
		// the reader's buffer, which the body read below may refill.
		kl := sp
		if cap(c.buf) < kl+n+2 {
			c.buf = make([]byte, kl+n+2)
		}
		c.buf = c.buf[:kl+n+2]
		copy(c.buf, rest[:sp])
		if _, err := io.ReadFull(c.r, c.buf[kl:]); err != nil {
			return result{}, err
		}
		c.rx += uint64(n + 2)
		if end, err := c.readLine(); err != nil {
			return result{}, err
		} else if string(end) != "END" {
			break
		}
		return result{status: stValue, key: c.buf[:kl], value: c.buf[kl : kl+n]}, nil
	}
	return result{}, fmt.Errorf("%w: text reply %q", errProtocol, line)
}
