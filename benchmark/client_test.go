package main

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

// The golden bytes below are written out from docs/WIRE-PROTOCOL.md (frame
// and operation headers, the entries blob) and docs/COMMANDS.md (the text
// grammar), not produced by internal/wire or internal/kv.

const goldenKey = "user000000000007"

func goldenValue() []byte { return appendValue(nil, 7, 1, 3) }

func TestBinaryRequestGolden(t *testing.T) {
	cases := []struct {
		name string
		op   op
		want []byte
	}{
		{"get", op{kind: opGet, key: 7}, cat(
			[]byte{0xF2, 2, 0, 0, 24, 0, 0, 0, 1, 0, 0, 0}, // request, v2, no flags, 24-byte payload, 1 op
			[]byte{0x01, 0, 16, 0, 0, 0, 0, 0},             // GET, key length 16, value length 0
			[]byte(goldenKey))},
		{"set", op{kind: opSet, key: 7, seq: 3}, cat(
			[]byte{0xF2, 2, 0, 0, 124, 0, 0, 0, 1, 0, 0, 0},
			[]byte{0x02, 0, 16, 0, 100, 0, 0, 0}, // SET, key length 16, value length 100
			[]byte(goldenKey), goldenValue())},
		{"scan", op{kind: opScan, key: 7, limit: 300}, cat(
			[]byte{0xF2, 2, 0, 0, 28, 0, 0, 0, 1, 0, 0, 0},
			[]byte{0x04, 0, 16, 0, 4, 0, 0, 0}, // SCAN, value = [u32 limit] + empty end key
			[]byte(goldenKey), []byte{0x2C, 0x01, 0, 0})},
	}
	for _, c := range cases {
		got := appendBinaryOp(beginFrame(nil), c.op, 1)
		endFrame(got, 1)
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s frame:\n got % x\nwant % x", c.name, got, c.want)
		}
	}
}

func TestBinaryResponseGolden(t *testing.T) {
	entries := cat([]byte{2, 0, 0, 0}, // two entries
		[]byte{16, 0, 3, 0, 0, 0}, []byte(goldenKey), []byte("abc"),
		[]byte{1, 0, 0, 0, 0, 0}, []byte("k"))
	payload := cat(
		[]byte{0x01, 0, 0, 0, 0, 0, 0, 0},                // StatusStored
		[]byte{0x02, 0, 0, 0, 3, 0, 0, 0}, []byte("xyz"), // StatusValue
		[]byte{0x03, 0, 0, 0, 0, 0, 0, 0},                           // StatusNotFound
		[]byte{0x06, 0, 0, 0, byte(len(entries)), 0, 0, 0}, entries) // StatusEntries
	frame := cat([]byte{0xF3, 2, 0, 0, byte(len(payload)), 0, 0, 0, 4, 0, 0, 0}, payload)
	c := &conn{r: bufio.NewReader(bytes.NewReader(frame))}
	n, p, err := c.readFrame()
	if err != nil || n != 4 {
		t.Fatalf("readFrame: %d results, %v", n, err)
	}
	want := []result{{status: stStored}, {status: stValue, value: []byte("xyz")},
		{status: stNotFound}, {status: stEntries, value: entries}}
	for i, w := range want {
		var res result
		if res, p, err = nextResult(p); err != nil || res.status != w.status || !bytes.Equal(res.value, w.value) {
			t.Fatalf("result %d: %+v, %v; want %+v", i, res, err, w)
		}
	}
	var keys []string
	if err := eachEntry(entries, func(k, v []byte) { keys = append(keys, string(k)+"="+string(v)) }); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(keys, ","); got != goldenKey+"=abc,k=" {
		t.Errorf("entries: %s", got)
	}
	if c.rx != uint64(len(frame)) {
		t.Errorf("rx counted %d of %d bytes", c.rx, len(frame))
	}

	// Violations are errors, not results.
	for name, bad := range map[string][]byte{
		"request magic":    cat([]byte{0xF2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}),
		"flags":            cat([]byte{0xF3, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}),
		"truncated":        frame[:len(frame)-1],
		"truncated header": frame[:5],
	} {
		c := &conn{r: bufio.NewReader(bytes.NewReader(bad))}
		if _, _, err := c.readFrame(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, _, err := nextResult([]byte{0x02, 0, 0, 0, 9, 0, 0, 0, 'x'}); err == nil {
		t.Error("truncated result value accepted")
	}
	if err := eachEntry(append(entries, 0), func(_, _ []byte) {}); err == nil {
		t.Error("trailing entry bytes accepted")
	}
}

func TestTextGolden(t *testing.T) {
	if got := string(appendTextOp(nil, op{kind: opGet, key: 7}, 1)); got != "get "+goldenKey+"\r\n" {
		t.Errorf("get: %q", got)
	}
	want := "set " + goldenKey + " 100\r\n" + string(goldenValue()) + "\r\n"
	if got := string(appendTextOp(nil, op{kind: opSet, key: 7, seq: 3}, 1)); got != want {
		t.Errorf("set: %q", got)
	}

	replies := "STORED\r\n" + "END\r\n" + "VALUE " + goldenKey + " 100\r\n" + string(goldenValue()) + "\r\nEND\r\n"
	c := &conn{r: bufio.NewReader(strings.NewReader(replies + "NOT_FOUND\r\n"))}
	for i, w := range []result{{status: stStored}, {status: stNotFound},
		{status: stValue, key: []byte(goldenKey), value: goldenValue()}} {
		res, err := c.readTextReply()
		if err != nil || res.status != w.status || !bytes.Equal(res.key, w.key) || !bytes.Equal(res.value, w.value) {
			t.Fatalf("reply %d: %+v, %v", i, res, err)
		}
	}
	if c.rx != uint64(len(replies)) {
		t.Errorf("rx counted %d of %d bytes", c.rx, len(replies))
	}
	if _, err := c.readTextReply(); err == nil {
		t.Error("a reply no get or set can draw was accepted")
	}
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
