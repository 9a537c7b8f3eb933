package main

import (
	"encoding/binary"
	"testing"
)

// oracleRun is a run with two connected-less clients over four records.
func oracleRun() *run {
	r := &run{sz: sizing{records: 4}}
	for i := 0; i < clientConns; i++ {
		r.clients = append(r.clients, &client{id: i, run: r, acks: make([]ack, 4)})
	}
	return r
}

func value(key int, conn byte, seq uint64) result {
	return result{status: stValue, value: appendValue(nil, key, conn, seq)}
}

func TestTrafficOracle(t *testing.T) {
	r := oracleRun()
	cl := r.clients[0]
	get := op{kind: opGet, key: 2}
	if !cl.checkTraffic(get, value(2, loaderConn, 0), 0, 0) {
		t.Error("loaded value refused")
	}
	if cl.checkTraffic(get, value(3, loaderConn, 0), 0, 0) {
		t.Error("another key's value accepted")
	}
	if cl.checkTraffic(get, result{status: stNotFound}, 0, 0) {
		t.Error("miss on a loaded key accepted")
	}
	if !cl.checkTraffic(op{kind: opSet, key: 2, seq: 5}, result{status: stStored}, 10, 20) || cl.acks[2] != (ack{5, 10, 20}) {
		t.Errorf("acknowledged set not recorded: %+v", cl.acks[2])
	}
	if cl.checkTraffic(op{kind: opSet, key: 2, seq: 6}, result{status: stNotFound}, 30, 40) || cl.acks[2].seq != 5 {
		t.Error("unacknowledged set recorded")
	}
	if !cl.checkTraffic(get, value(2, 0, 5), 0, 0) || cl.checkTraffic(get, value(2, 0, 4), 0, 0) {
		t.Error("a connection must read back its own latest write, and only that")
	}
	if !cl.checkTraffic(get, value(2, 1, 77), 0, 0) {
		t.Error("the other connection's write refused")
	}
	text := value(2, 1, 77)
	text.key = []byte("user000000000003")
	if cl.checkTraffic(get, text, 0, 0) {
		t.Error("VALUE line naming another key accepted")
	}
}

func entries(keys ...int) result {
	blob := binary.LittleEndian.AppendUint32(nil, uint32(len(keys)))
	for _, k := range keys {
		blob = binary.LittleEndian.AppendUint16(blob, keyLen)
		blob = binary.LittleEndian.AppendUint32(blob, valueLen)
		blob = appendValue(appendKey(blob, k), k, loaderConn, 0)
	}
	return result{status: stEntries, value: blob}
}

func TestScanOracle(t *testing.T) {
	cl := oracleRun().clients[0]
	scan := op{kind: opScan, key: 1, limit: 2}
	if !cl.checkTraffic(scan, entries(1, 2), 0, 0) {
		t.Error("exact scan refused")
	}
	if !cl.checkTraffic(op{kind: opScan, key: 2, limit: 50}, entries(2, 3), 0, 0) {
		t.Error("scan that ran into the end of the key space refused")
	}
	for name, res := range map[string]result{
		"short":      entries(1),
		"over limit": entries(1, 2, 3),
		"gap":        entries(1, 3),
		"descending": entries(2, 1),
		"early":      entries(0, 1),
		"wrong type": value(1, loaderConn, 0),
	} {
		if cl.checkTraffic(scan, res, 0, 0) {
			t.Errorf("%s scan accepted", name)
		}
	}
	bad := entries(1, 2)
	copy(bad.value[4+6+keyLen:], appendValue(nil, 3, loaderConn, 0)) // key 1 carrying key 3's value
	if cl.checkTraffic(scan, bad, 0, 0) {
		t.Error("entry whose value names another key accepted")
	}
}

func TestFinalOracle(t *testing.T) {
	r := oracleRun()
	get := func(k int) op { return op{kind: opGet, key: k} }
	ok := func(k int, conn byte, seq uint64) bool { return r.checkFinal(get(k), value(k, conn, seq), 0, 0) }

	if !ok(0, loaderConn, 0) {
		t.Error("never-written key must hold its loaded value")
	}
	r.clients[0].acks[1] = ack{seq: 3, sent: 10, acked: 20}
	if ok(1, loaderConn, 0) || ok(1, 0, 2) || !ok(1, 0, 3) {
		t.Error("key 1 must hold connection 0's last acknowledged write")
	}
	// Connection 1 wrote key 1 strictly later: its write must have won.
	r.clients[1].acks[1] = ack{seq: 9, sent: 30, acked: 40}
	if ok(1, 0, 3) || !ok(1, 1, 9) {
		t.Error("a write sent after another's acknowledgement must win")
	}
	// Overlapping writes may land in either order.
	r.clients[1].acks[1] = ack{seq: 9, sent: 15, acked: 40}
	if !ok(1, 0, 3) || !ok(1, 1, 9) {
		t.Error("overlapping writes: either may be last")
	}
	if r.checkFinal(get(1), result{status: stNotFound}, 0, 0) || r.checkFinal(get(1), value(2, 1, 9), 0, 0) || ok(1, 7, 1) {
		t.Error("lost key, another key's value or an unknown writer accepted")
	}
}

func TestQuantiles(t *testing.T) {
	v := []int64{5000, 1000, 4000, 2000, 3000}
	if got := quantileUs(v, 0.5); got != 3 {
		t.Errorf("median %v us", got)
	}
	if got := quantileUs(v, 1); got != 5 {
		t.Errorf("max %v us", got)
	}
	if quantileUs(nil, 0.99) != 0 {
		t.Error("empty sample must read 0")
	}
	if median([]float64{4, 1, 3}) != 3 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median")
	}
}
