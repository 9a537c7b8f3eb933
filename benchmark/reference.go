package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
)

// The reference server is the benchmark's yardstick for the host, not a
// system under test: a volatile store of the benchmark's own keys behind the
// same two protocols, written from the two documents like the client and
// sharing no code with the repository. An end-to-end run measures it in
// alternation with kvserver, under the same traffic, and divides the host's
// speed of the moment out of kvserver's timings (see run.go). It runs as a
// child process (`benchmark -reference <records>`), so that it is scheduled
// like kvserver is.
type reference struct {
	mu   sync.RWMutex
	vals [][]byte // by key index; nil = absent
}

// serveReference listens on a loopback port, announces it the way kvserver
// does and serves until killed.
func serveReference(records int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Println("reference listening on", ln.Addr())
	ref := &reference{vals: make([][]byte, records)}
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		go ref.serve(c)
	}
}

func (ref *reference) get(key []byte) []byte {
	i, ok := parseKey(key)
	if !ok || i >= len(ref.vals) {
		return nil
	}
	ref.mu.RLock()
	defer ref.mu.RUnlock()
	return ref.vals[i]
}

func (ref *reference) set(key, value []byte) bool {
	i, ok := parseKey(key)
	if !ok || i >= len(ref.vals) {
		return false
	}
	v := append([]byte(nil), value...)
	ref.mu.Lock()
	ref.vals[i] = v
	ref.mu.Unlock()
	return true
}

// serve speaks whichever protocol the connection's first byte opens, until
// the peer closes or sends something outside the benchmark's traffic.
func (ref *reference) serve(c net.Conn) {
	defer c.Close()
	r, w := bufio.NewReaderSize(c, 64<<10), bufio.NewWriterSize(c, 64<<10)
	first, err := r.Peek(1)
	if err != nil {
		return
	}
	next := ref.textRequest
	if first[0] == magicReq {
		next = ref.binaryRequest
	}
	var scratch []byte
	for {
		if scratch, err = next(r, w, scratch); err != nil {
			return
		}
		if r.Buffered() == 0 { // answer a pipelined burst with one write
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// textRequest serves one `get <key>` or `set <key> <bytes>` + payload.
func (ref *reference) textRequest(r *bufio.Reader, w *bufio.Writer, body []byte) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return body, err
	}
	f := bytes.Fields(line)
	switch {
	case len(f) == 2 && string(f[0]) == "get":
		if v := ref.get(f[1]); v != nil {
			fmt.Fprintf(w, "VALUE %s %d\r\n%s\r\n", f[1], len(v), v)
		}
		w.WriteString("END\r\n")
	case len(f) == 3 && string(f[0]) == "set":
		n, err := strconv.Atoi(string(f[2]))
		if err != nil || n < 0 || n > 1<<20 {
			return body, errProtocol
		}
		key := append([]byte(nil), f[1]...) // the body read may refill the line's buffer
		if cap(body) < n+2 {
			body = make([]byte, n+2)
		}
		body = body[:n+2]
		if _, err := io.ReadFull(r, body); err != nil {
			return body, err
		}
		if !ref.set(key, body[:n]) {
			return body, errProtocol
		}
		w.WriteString("STORED\r\n")
	default:
		return body, errProtocol
	}
	return body, nil
}

// binaryRequest serves one request frame of GET, SET and SCAN operations.
func (ref *reference) binaryRequest(r *bufio.Reader, w *bufio.Writer, out []byte) ([]byte, error) {
	var h [hdrLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return out, err
	}
	payload := make([]byte, binary.LittleEndian.Uint32(h[4:]))
	if _, err := io.ReadFull(r, payload); err != nil {
		return out, err
	}
	count := int(binary.LittleEndian.Uint32(h[8:]))
	out = append(out[:0], magicResp, wireVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	result := func(status byte, value []byte) {
		out = appendOpHeader(out, status, 0, len(value))
		out = append(out, value...)
	}
	for i := 0; i < count; i++ {
		if len(payload) < opHdrLen {
			return out, errProtocol
		}
		kl, vl := int(binary.LittleEndian.Uint16(payload[2:])), int(binary.LittleEndian.Uint32(payload[4:]))
		if len(payload) < opHdrLen+kl+vl {
			return out, errProtocol
		}
		code, key, value := payload[0], payload[opHdrLen:opHdrLen+kl], payload[opHdrLen+kl:opHdrLen+kl+vl]
		payload = payload[opHdrLen+kl+vl:]
		switch code {
		case codeGet:
			if v := ref.get(key); v != nil {
				result(stValue, v)
			} else {
				result(stNotFound, nil)
			}
		case codeSet:
			if !ref.set(key, value) {
				return out, errProtocol
			}
			result(stStored, nil)
		case codeScan: // unbounded end key: the entries from key on, up to the limit
			start, ok := parseKey(key)
			if !ok || vl != 4 {
				return out, errProtocol
			}
			limit := int(binary.LittleEndian.Uint32(value))
			at := len(out)
			result(stEntries, []byte{0, 0, 0, 0})
			n := 0
			ref.mu.RLock()
			for k := start; k < len(ref.vals) && n < limit; k++ {
				if v := ref.vals[k]; v != nil {
					out = binary.LittleEndian.AppendUint16(out, keyLen)
					out = binary.LittleEndian.AppendUint32(out, uint32(len(v)))
					out = append(appendKey(out, k), v...)
					n++
				}
			}
			ref.mu.RUnlock()
			binary.LittleEndian.PutUint32(out[at+4:], uint32(len(out)-at-opHdrLen))
			binary.LittleEndian.PutUint32(out[at+opHdrLen:], uint32(n))
		default:
			return out, errProtocol
		}
	}
	endFrame(out, count)
	_, err := w.Write(out)
	return out, err
}
