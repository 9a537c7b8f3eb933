package kv

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strconv"

	"github.com/respct/respct/internal/wire"
)

// The text codec: command lines into ops (parseOp, readMulti), results into
// reply lines (toText), and the connection loop that joins them. Grammar and
// replies are specified in docs/COMMANDS.md; each verb's framing (argument
// count, payload, admission as a MULTI sub-line) comes from its registry
// row.

// maxMultiOps bounds the sub-commands of one text-protocol MULTI batch.
const maxMultiOps = 64

// splitFields splits line into at most 4 space-separated fields without
// allocating, returning the field count (or -1 when a 5th field exists).
func splitFields(line []byte, f *[4][]byte) int {
	n := 0
	i := 0
	for i < len(line) {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		if i == len(line) {
			break
		}
		j := i
		for j < len(line) && line[j] != ' ' {
			j++
		}
		if n == 4 {
			return -1
		}
		f[n] = line[i:j]
		n++
		i = j
	}
	return n
}

// parseU64 parses a non-negative decimal uint64 (TTL milliseconds, log
// indexes).
func parseU64(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// parseLen parses a non-negative decimal byte count, rejecting anything
// else (including lengths that would overflow the value bound by far).
func parseLen(b []byte) (int, bool) {
	if len(b) > 9 {
		return 0, false
	}
	n, ok := parseU64(b)
	return int(n), ok
}

// readFields reads one command line and splits it into f, returning the
// field count as splitFields does.
func readFields(r *bufio.Reader, f *[4][]byte) (int, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	return splitFields(bytes.TrimRight(line, "\r\n"), f), nil
}

// parseOp fills o from the nf fields of one command line whose verb is c's.
// A malformed line returns the CLIENT_ERROR reason. n is a Body verb's
// payload length (not yet read, not yet bounded) or multi's sub-command
// count. o's key and scan bound alias the line.
func parseOp(c *Command, f *[4][]byte, nf int, o *op) (n int, reason string) {
	if nf-1 != c.Args {
		return 0, "bad command"
	}
	*o = op{code: c.Opcode, key: f[1]}
	ok := true
	switch {
	case c.Body:
		if n, ok = parseLen(f[2]); !ok {
			reason = "bad length"
		}
	case c.Opcode == opMulti:
		o.key = nil
		if n, ok = parseLen(f[1]); !ok || n == 0 || n > maxMultiOps {
			reason = "bad batch size"
		}
	case c.Opcode == wire.OpScan:
		// scan <from> <to> <limit>; "-" = unbounded from, "+" = to.
		limit, ok := parseLen(f[3])
		if !ok || limit == 0 {
			reason = "bad limit"
		}
		o.to, o.n32 = f[2], uint32(limit)
		if len(o.key) == 1 && o.key[0] == '-' {
			o.key = nil
		}
		if len(o.to) == 1 && o.to[0] == '+' {
			o.to = nil
		}
	case c.Opcode == wire.OpLRange:
		// lrange <name> <from> <count>
		from, ok1 := parseU64(f[2])
		count, ok2 := parseLen(f[3])
		if !ok1 || !ok2 {
			reason = "bad range"
		}
		o.n64, o.n32 = from, uint32(count)
	case c.Opcode == wire.OpExpire:
		if o.n64, ok = parseU64(f[2]); !ok {
			reason = "bad ttl"
		}
	}
	return n, reason
}

// errBadMulti is a malformed MULTI sub-command; the connection closes
// because the remaining batch framing is unknowable.
var errBadMulti = errors.New("kv: malformed multi sub-command")

// readMulti consumes a MULTI batch's n sub-command lines (and payloads).
// Keys and values are copied: the batch outlives the reader buffer.
func readMulti(r *bufio.Reader, n int) ([]op, error) {
	ops := make([]op, n)
	var f [4][]byte
	for i := range ops {
		nf, err := readFields(r, &f)
		if err != nil {
			return nil, err
		}
		var cmd *Command
		if nf != 0 {
			cmd = lookupVerb(f[0])
		}
		if cmd == nil || !cmd.Multi {
			return nil, errBadMulti
		}
		o := &ops[i]
		size, reason := parseOp(cmd, &f, nf, o)
		if reason != "" || size > maxValueBytes {
			return nil, errBadMulti
		}
		o.key = bytes.Clone(o.key)
		if cmd.Body {
			body := make([]byte, size+2)
			if _, err := io.ReadFull(r, body); err != nil {
				return nil, err
			}
			o.value = body[:size]
		}
	}
	return ops, nil
}

// writeValue writes one "VALUE <key> <len>\r\n<data>\r\n" block.
func writeValue(wtr *bufio.Writer, key, value []byte, num *[20]byte) {
	wtr.WriteString("VALUE ")
	wtr.Write(key)
	wtr.WriteByte(' ')
	wtr.Write(strconv.AppendInt(num[:0], int64(len(value)), 10))
	wtr.WriteString("\r\n")
	wtr.Write(value)
	wtr.WriteString("\r\n")
}

// toText is the text codec's response half: o's result as reply lines. num
// is integer-rendering scratch.
func (r *result) toText(o *op, wtr *bufio.Writer, num *[20]byte) {
	switch r.status {
	case wire.StatusStored:
		wtr.WriteString("STORED\r\n")
	case wire.StatusDeleted:
		wtr.WriteString("DELETED\r\n")
	case wire.StatusNotFound:
		if o.code == wire.OpGet {
			wtr.WriteString("END\r\n")
		} else {
			wtr.WriteString("NOT_FOUND\r\n")
		}
	case wire.StatusValue: // get, qpop: the VALUE key is the request's
		writeValue(wtr, o.key, r.value, num)
		wtr.WriteString("END\r\n")
	case wire.StatusEmpty:
		wtr.WriteString("END\r\n")
	case wire.StatusEntries:
		for _, e := range r.entries {
			writeValue(wtr, []byte(e.Key), e.Value, num)
		}
		for i, rec := range r.records { // lrange: VALUE keys are record indexes
			idx := strconv.AppendUint(num[:0], o.n64+uint64(i), 10)
			writeValue(wtr, idx, rec, num)
		}
		wtr.WriteString("END\r\n")
	case wire.StatusAppended:
		wtr.WriteString("APPENDED ")
		wtr.Write(strconv.AppendUint(num[:0], r.n64, 10))
		wtr.WriteString("\r\n")
	case wire.StatusTTL:
		wtr.WriteString("TTL ")
		wtr.Write(strconv.AppendUint(num[:0], r.n64, 10))
		wtr.WriteString("\r\n")
	case wire.StatusTooLarge:
		wtr.WriteString("SERVER_ERROR object too large\r\n")
	case wire.StatusWrongType:
		wtr.WriteString("WRONGTYPE\r\n")
	case wire.StatusRefused:
		wtr.WriteString("SERVER_ERROR structures disabled\r\n")
	case statusCrossShard:
		wtr.WriteString("CLIENT_ERROR cross-shard multi\r\n")
	case statusBatch:
		for i := range r.sub {
			r.sub[i].toText(&o.sub[i], wtr, num)
		}
	}
}

// textConn is one text-protocol connection: the codec's reused buffers and
// the job its commands ride to a worker on.
type textConn struct {
	s      *Server
	r      *bufio.Reader
	w      *bufio.Writer
	o      op
	res    result
	j      job
	f      [4][]byte
	keyBuf []byte   // Body verbs' keys survive the payload read in here
	valBuf []byte   // reused payload buffer
	num    [20]byte // integer rendering scratch
}

// serveText is the text-protocol connection loop. Lines are parsed with
// ReadSlice over the reader's own buffer and payloads land in a reused
// per-connection buffer, so the loop is allocation-free per op in steady
// state; responses are written without fmt and flushed only when no further
// request bytes are buffered, so a pipelining client pays one write-back
// per burst.
func (s *Server) serveText(r *bufio.Reader, wtr *bufio.Writer) {
	c := &textConn{s: s, r: r, w: wtr}
	c.j = job{o: &c.o, r: &c.res, done: make(chan error, 1)}
	for {
		run, keep := c.decode()
		if run {
			s.do(&c.j)
			if c.res.status == statusCrossShard {
				s.protoErr()
			}
			c.res.toText(&c.o, wtr, &c.num)
		}
		if !keep {
			return
		}
		if r.Buffered() == 0 {
			if err := wtr.Flush(); err != nil {
				return
			}
		}
	}
}

// clientErr counts and answers one malformed command, flushed at once.
func (c *textConn) clientErr(reason string) {
	c.s.protoErr()
	c.w.WriteString("CLIENT_ERROR ")
	c.w.WriteString(reason)
	c.w.WriteString("\r\n")
	c.w.Flush()
}

// decode is the text codec's request half: it reads the next command into
// c.o. run reports that c.o awaits execution — otherwise the line was blank
// or decode answered it itself (an error, or a payload too large to buffer);
// keep is false when the connection must close.
func (c *textConn) decode() (run, keep bool) {
	nf, err := readFields(c.r, &c.f)
	if err != nil {
		if err == bufio.ErrBufferFull {
			// The "line" exceeds the read buffer: unframeable, close.
			c.s.protoErr()
		}
		return false, false
	}
	if nf == 0 {
		return false, true
	}
	if string(c.f[0]) == "quit" {
		c.w.Flush()
		return false, false
	}
	cmd := lookupVerb(c.f[0])
	if cmd == nil {
		c.s.protoErr()
		c.w.WriteString("ERROR\r\n")
		return false, true
	}
	o := &c.o
	n, reason := parseOp(cmd, &c.f, nf, o)
	if reason != "" {
		// A malformed Body verb or multi leaves an unknown number of payload
		// bytes on the wire; replying and reading on would desync the
		// protocol — every subsequent "command" would be value bytes — so
		// the connection must close. Other verbs' lines are self-contained.
		c.clientErr(reason)
		return false, !cmd.Body && cmd.Opcode != opMulti
	}
	switch {
	case cmd.Body && n > maxValueBytes:
		// Valid but too large to buffer: the payload is consumed so the
		// connection stays usable, and answered as the executor would.
		if _, err := io.CopyN(io.Discard, c.r, int64(n)+2); err != nil {
			return false, false
		}
		c.res = result{status: c.s.sf.refusal(cmd.Opcode, n)}
		c.res.toText(o, c.w, &c.num)
		c.w.Flush()
		return false, true
	case cmd.Body:
		// The payload read below refills the reader's buffer, which would
		// clobber the key sub-slice: copy it out first.
		c.keyBuf = append(c.keyBuf[:0], o.key...)
		o.key = c.keyBuf
		if cap(c.valBuf) < n+2 {
			c.valBuf = make([]byte, n+2)
		}
		data := c.valBuf[:n+2]
		if _, err := io.ReadFull(c.r, data); err != nil {
			return false, false
		}
		o.value = data[:n]
	case cmd.Opcode == opMulti:
		// Sub-commands are consumed before any validation reply so the
		// stream stays framed; an unparseable batch kills the connection
		// like a bad payload length would.
		if o.sub, err = readMulti(c.r, n); err != nil {
			c.clientErr("bad multi")
			return false, false
		}
	}
	return true, true
}
