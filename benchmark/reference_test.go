package main

import (
	"net"
	"testing"
	"time"
)

// Every workload's traffic, closed and open loop, against the reference
// server in this process: the generator, both codecs, the oracle and the
// reference itself, without kvserver and in well under a second.
func TestTrafficAgainstReference(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			ref := &reference{vals: make([][]byte, smokeSizing.records)}
			go func() {
				for {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					go ref.serve(c)
				}
			}()

			s := &server{addr: ln.Addr().String(), snapshot: "reference"}
			r := &run{w: w, sz: smokeSizing, seed: 3, origin: time.Now(), zipf: newZipf(smokeSizing.records),
				oracle: map[string][][]ack{}}
			for c := 0; c < clientConns; c++ {
				r.clients = append(r.clients, &client{id: c, run: r})
			}
			defer r.disconnect()
			phase := func(name string, f func() (*phaseStats, error)) *phaseStats {
				t.Helper()
				if err := r.connect(s); err != nil { // a connection keeps its first protocol
					t.Fatal(err)
				}
				st, err := f()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if st.wrong != 0 || st.ops == 0 {
					t.Fatalf("%s: %d correct, %d wrong", name, st.ops, st.wrong)
				}
				return st
			}
			phase("load", func() (*phaseStats, error) { return r.sweep(s, opSet, stored) })
			closed := phase("closed loop", func() (*phaseStats, error) { return r.closedLoop(s, 100*time.Millisecond) })
			open := phase("open loop", func() (*phaseStats, error) { return r.openLoop(s, 200*time.Millisecond) })
			phase("verify", func() (*phaseStats, error) { return r.sweep(s, opGet, r.checkFinal) })

			if len(closed.lat) == 0 || closed.tx == 0 || closed.rx == 0 || closed.busy == 0 {
				t.Errorf("closed loop recorded %d latencies, %d/%d bytes", len(closed.lat), closed.tx, closed.rx)
			}
			if len(open.late) != len(open.lat) || len(open.lat) == 0 {
				t.Errorf("open loop: %d latencies, %d lateness samples", len(open.lat), len(open.late))
			}
			wrote := uint64(0)
			for _, cl := range r.clients {
				wrote += cl.seq
			}
			if got := closed.kinds[opSet] + open.kinds[opSet]; got != wrote || wrote == 0 {
				t.Errorf("%d sets acknowledged, %d issued", got, wrote)
			}
			if r.failed != 0 || r.attempted < uint64(2*r.sz.records) {
				t.Errorf("%d failed of %d attempted", r.failed, r.attempted)
			}
		})
	}
}

// A reference that loses a write must be caught by the final oracle: the
// instrument, not only the system, has to be able to fail.
func TestFinalOracleCatchesLostWrite(t *testing.T) {
	r := oracleRun()
	r.clients[1].acks[2] = ack{seq: 4, sent: 1, acked: 2}
	if r.checkFinal(op{kind: opGet, key: 2}, value(2, loaderConn, 0), 0, 0) {
		t.Error("a key still holding its loaded value after an acknowledged write passed")
	}
}
