package kv

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
)

// Client is a minimal client for the server's text protocol. The Send/Recv
// halves of each operation are exposed so callers can pipeline: write any
// number of commands, Flush, then Recv the replies in the same order.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// Dial connects a text-protocol client to addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// SendSet writes a set command without flushing.
func (c *Client) SendSet(key string, value []byte) error {
	fmt.Fprintf(c.w, "set %s %d\r\n", key, len(value))
	c.w.Write(value)
	_, err := c.w.WriteString("\r\n")
	return err
}

// RecvSet reads one set reply.
func (c *Client) RecvSet() error {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return err
	}
	if !strings.HasPrefix(line, "STORED") {
		return fmt.Errorf("kv: set failed: %q", line)
	}
	return nil
}

// Set stores value under key.
func (c *Client) Set(key string, value []byte) error {
	if err := c.SendSet(key, value); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	return c.RecvSet()
}

// SendGet writes a get command without flushing.
func (c *Client) SendGet(key string) error {
	fmt.Fprintf(c.w, "get %s\r\n", key)
	return nil
}

// RecvGet reads one get reply.
func (c *Client) RecvGet() ([]byte, bool, error) {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return nil, false, err
	}
	if strings.HasPrefix(line, "END") {
		return nil, false, nil
	}
	if !strings.HasPrefix(line, "VALUE ") {
		return nil, false, fmt.Errorf("kv: bad get response %q", line)
	}
	fields := strings.Fields(strings.TrimSpace(line))
	n, err := strconv.Atoi(fields[2])
	if err != nil {
		return nil, false, err
	}
	data := make([]byte, n+2)
	if _, err := io.ReadFull(c.r, data); err != nil {
		return nil, false, err
	}
	if end, err := c.r.ReadString('\n'); err != nil || !strings.HasPrefix(end, "END") {
		return nil, false, fmt.Errorf("kv: missing END (%q, %v)", end, err)
	}
	return data[:n], true, nil
}

// Get fetches key.
func (c *Client) Get(key string) ([]byte, bool, error) {
	if err := c.SendGet(key); err != nil {
		return nil, false, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, false, err
	}
	return c.RecvGet()
}

// SendDelete writes a delete command without flushing.
func (c *Client) SendDelete(key string) error {
	fmt.Fprintf(c.w, "delete %s\r\n", key)
	return nil
}

// RecvDelete reads one delete reply and reports whether the key existed.
func (c *Client) RecvDelete() (bool, error) {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return false, err
	}
	return strings.HasPrefix(line, "DELETED"), nil
}

// Delete removes key and reports whether it existed.
func (c *Client) Delete(key string) (bool, error) {
	if err := c.SendDelete(key); err != nil {
		return false, err
	}
	if err := c.w.Flush(); err != nil {
		return false, err
	}
	return c.RecvDelete()
}

// recvEntries reads VALUE blocks until END, collecting them in order. An
// error line (WRONGTYPE, SERVER_ERROR, CLIENT_ERROR) surfaces as an error.
func (c *Client) recvEntries() ([]Entry, error) {
	var out []Entry
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimSpace(line)
		if line == "END" {
			return out, nil
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "VALUE" {
			return nil, fmt.Errorf("kv: %s", line)
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, err
		}
		data := make([]byte, n+2)
		if _, err := io.ReadFull(c.r, data); err != nil {
			return nil, err
		}
		out = append(out, Entry{Key: fields[1], Value: data[:n]})
	}
}

// recvLine reads one status line and checks it against the acceptable
// statuses, returning the one that matched.
func (c *Client) recvLine(want ...string) (string, error) {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimSpace(line)
	for _, w := range want {
		if line == w || strings.HasPrefix(line, w+" ") {
			return line, nil
		}
	}
	return "", fmt.Errorf("kv: %s", line)
}

// SendScan writes a scan command without flushing. Empty from/to mean
// unbounded (the "-" / "+" sentinels on the wire).
func (c *Client) SendScan(from, to string, limit int) error {
	if from == "" {
		from = "-"
	}
	if to == "" {
		to = "+"
	}
	_, err := fmt.Fprintf(c.w, "scan %s %s %d\r\n", from, to, limit)
	return err
}

// RecvScan reads one scan reply.
func (c *Client) RecvScan() ([]Entry, error) { return c.recvEntries() }

// Scan lists entries with keys in [from, to] (empty = unbounded), at most
// limit.
func (c *Client) Scan(from, to string, limit int) ([]Entry, error) {
	if err := c.SendScan(from, to, limit); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	return c.RecvScan()
}

// QPush appends value to the named queue.
func (c *Client) QPush(name string, value []byte) error {
	fmt.Fprintf(c.w, "qpush %s %d\r\n", name, len(value))
	c.w.Write(value)
	c.w.WriteString("\r\n")
	if err := c.w.Flush(); err != nil {
		return err
	}
	_, err := c.recvLine("STORED")
	return err
}

// QPop removes and returns the named queue's oldest element.
func (c *Client) QPop(name string) ([]byte, bool, error) {
	fmt.Fprintf(c.w, "qpop %s\r\n", name)
	if err := c.w.Flush(); err != nil {
		return nil, false, err
	}
	entries, err := c.recvEntries()
	if err != nil || len(entries) == 0 {
		return nil, false, err
	}
	return entries[0].Value, true, nil
}

// LAppend appends record to the named log and returns its index.
func (c *Client) LAppend(name string, record []byte) (uint64, error) {
	fmt.Fprintf(c.w, "lappend %s %d\r\n", name, len(record))
	c.w.Write(record)
	c.w.WriteString("\r\n")
	if err := c.w.Flush(); err != nil {
		return 0, err
	}
	line, err := c.recvLine("APPENDED")
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(line[len("APPENDED "):], 10, 64)
}

// LRange reads count records of the named log starting at index from. A
// missing log reads as empty.
func (c *Client) LRange(name string, from uint64, count int) ([][]byte, error) {
	fmt.Fprintf(c.w, "lrange %s %d %d\r\n", name, from, count)
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	entries, err := c.recvEntries()
	if err != nil {
		return nil, err
	}
	recs := make([][]byte, len(entries))
	for i, e := range entries {
		recs[i] = e.Value
	}
	return recs, nil
}

// Expire sets key's time-to-live in milliseconds (0 clears it) and reports
// whether the key exists.
func (c *Client) Expire(key string, ms uint64) (bool, error) {
	fmt.Fprintf(c.w, "expire %s %d\r\n", key, ms)
	if err := c.w.Flush(); err != nil {
		return false, err
	}
	line, err := c.recvLine("STORED", "NOT_FOUND")
	return line == "STORED", err
}

// TTL reads key's remaining time-to-live: (ms, true) for a live key (0 = no
// expiry set), (0, false) for a missing or expired one.
func (c *Client) TTL(key string) (uint64, bool, error) {
	fmt.Fprintf(c.w, "ttl %s\r\n", key)
	if err := c.w.Flush(); err != nil {
		return 0, false, err
	}
	line, err := c.recvLine("TTL", "NOT_FOUND")
	if err != nil || line == "NOT_FOUND" {
		return 0, false, err
	}
	ms, err := strconv.ParseUint(line[len("TTL "):], 10, 64)
	return ms, err == nil, err
}

// MultiOp is one sub-command of a Client.Multi batch. Verb is one of set,
// get, delete, expire; Ms is expire's deadline argument.
type MultiOp struct {
	Verb  string
	Key   string
	Value []byte
	Ms    uint64
}

// MultiResult is one MultiOp's outcome: Found reports a hit (get), an
// existing key (delete, expire), or success (set); Value is get's hit.
type MultiResult struct {
	Found bool
	Value []byte
}

// Multi executes ops atomically: all keys must route to one shard, and the
// batch applies under a single checkpoint-prevent window — a crash either
// persists the whole batch or rolls it back whole. A refused batch (cross-
// shard keys, structures disabled) returns an error and executes nothing.
func (c *Client) Multi(ops []MultiOp) ([]MultiResult, error) {
	fmt.Fprintf(c.w, "multi %d\r\n", len(ops))
	for _, op := range ops {
		switch op.Verb {
		case "set":
			fmt.Fprintf(c.w, "set %s %d\r\n", op.Key, len(op.Value))
			c.w.Write(op.Value)
			c.w.WriteString("\r\n")
		case "get", "delete":
			fmt.Fprintf(c.w, "%s %s\r\n", op.Verb, op.Key)
		case "expire":
			fmt.Fprintf(c.w, "expire %s %d\r\n", op.Key, op.Ms)
		default:
			return nil, fmt.Errorf("kv: multi: bad verb %q", op.Verb)
		}
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	out := make([]MultiResult, 0, len(ops))
	for i, op := range ops {
		if op.Verb == "get" {
			entries, err := c.recvEntries()
			if err != nil {
				return nil, err
			}
			res := MultiResult{Found: len(entries) > 0}
			if res.Found {
				res.Value = entries[0].Value
			}
			out = append(out, res)
			continue
		}
		line, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimSpace(line)
		switch line {
		case "STORED", "DELETED":
			out = append(out, MultiResult{Found: true})
		case "NOT_FOUND":
			out = append(out, MultiResult{})
		default:
			// A refused batch answers one error line before any per-op
			// replies.
			if i == 0 {
				return nil, fmt.Errorf("kv: %s", line)
			}
			return nil, fmt.Errorf("kv: multi op %d: %s", i, line)
		}
	}
	return out, nil
}

// Flush pushes any pipelined commands to the server.
func (c *Client) Flush() error { return c.w.Flush() }

// Close terminates the connection.
func (c *Client) Close() error {
	fmt.Fprintf(c.w, "quit\r\n")
	c.w.Flush()
	return c.conn.Close()
}
