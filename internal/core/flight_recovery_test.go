package core

import (
	"testing"

	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/telemetry"
)

// checkFlightPrefix asserts the report's flight window is a consistent run:
// sequences strictly ascending by one and every kind valid for printing.
func checkFlightPrefix(t *testing.T, evs []telemetry.FlightEvent) {
	t.Helper()
	if len(evs) == 0 {
		t.Fatal("recovery report carries no flight events")
	}
	for i, e := range evs {
		if i > 0 && e.Seq != evs[i-1].Seq+1 {
			t.Fatalf("flight window not contiguous: event %d has seq %d after %d", i, e.Seq, evs[i-1].Seq)
		}
		if e.Kind < telemetry.FlightFormat || e.Kind > telemetry.FlightFrameSnap {
			t.Fatalf("event %d has invalid kind %d", i, e.Kind)
		}
	}
}

// countKinds tallies a flight window by kind.
func countKinds(evs []telemetry.FlightEvent) map[telemetry.FlightKind]int {
	out := map[telemetry.FlightKind]int{}
	for _, e := range evs {
		out[e.Kind]++
	}
	return out
}

// TestFlightEventsAcrossCrashCycles soaks the flight recorder through
// repeated chaos crashes: each cycle runs three checkpoints, evicts half the
// dirty lines, crashes, and recovers. Record persists each entry before
// advancing the cursor, so every event appended before the crash must
// reappear, and each recovery appends its own event visible to the next
// cycle's report.
func TestFlightEventsAcrossCrashCycles(t *testing.T) {
	h := pmem.New(pmem.Config{Size: 8 << 20, Chaos: true, Seed: 11})
	rt, err := NewRuntime(h, Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	th := rt.Thread(0)
	p := rt.Arena().AllocCells(th, 4)
	for i := 0; i < 4; i++ {
		th.Init(Cell(p, i), uint64(i))
	}

	const cycles = 4
	const ckptsPerCycle = 3
	for c := 0; c < cycles; c++ {
		for i := 0; i < ckptsPerCycle; i++ {
			th.Update(Cell(p, i%4), uint64(c*100+i))
			mustCheckpointSolo(t, rt)
		}
		th.Update(Cell(p, 0), 9999) // doomed epoch-N work
		h.EvictDirtyFraction(0.5, int64(c))
		h.Crash()
		rt2, rep, err := Recover(h, Config{Threads: 1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkFlightPrefix(t, rep.FlightEvents)
		// Cycle c's report: the format event, (c+1)*3 checkpoints, and the
		// c recovery events appended by the previous cycles' recoveries.
		want := 1 + (c+1)*ckptsPerCycle + c
		if len(rep.FlightEvents) != want {
			t.Fatalf("cycle %d: %d flight events, want %d:\n%v", c, len(rep.FlightEvents), want, rep.FlightEvents)
		}
		kinds := countKinds(rep.FlightEvents)
		if kinds[telemetry.FlightFormat] != 1 {
			t.Fatalf("cycle %d: %d format events", c, kinds[telemetry.FlightFormat])
		}
		if kinds[telemetry.FlightCheckpoint] != (c+1)*ckptsPerCycle {
			t.Fatalf("cycle %d: %d checkpoint events, want %d", c, kinds[telemetry.FlightCheckpoint], (c+1)*ckptsPerCycle)
		}
		if kinds[telemetry.FlightRecovery] != c {
			t.Fatalf("cycle %d: %d recovery events, want %d", c, kinds[telemetry.FlightRecovery], c)
		}
		// The live recorder has already appended this recovery's own event.
		if got := rt2.Flight().Seq(); got != uint64(want+1) {
			t.Fatalf("cycle %d: recorder seq %d, want %d", c, got, want+1)
		}
		rt = rt2
		th = rt.Thread(0)
	}
}

// TestFlightEventsAsyncCrash checks the async event stream: every cut and
// every committed drain must survive a chaos crash and surface in the
// recovery report.
func TestFlightEventsAsyncCrash(t *testing.T) {
	rt := newAsyncRuntime(t, 1, true)
	h := rt.Heap()
	th := rt.Thread(0)
	v := Cell(rt.Arena().AllocCells(th, 1), 0)
	th.Init(v, 1)

	const rounds = 3
	for i := 0; i < rounds; i++ {
		th.Update(v, uint64(10+i))
		mustCheckpointSolo(t, rt)
		rt.WaitDrain()
	}
	th.Update(v, 99) // doomed
	h.EvictDirtyFraction(0.5, 21)
	h.Crash()

	_, rep, err := Recover(h, Config{Threads: 1, AsyncFlush: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkFlightPrefix(t, rep.FlightEvents)
	kinds := countKinds(rep.FlightEvents)
	if kinds[telemetry.FlightCut] != rounds {
		t.Fatalf("%d cut events, want %d:\n%v", kinds[telemetry.FlightCut], rounds, rep.FlightEvents)
	}
	if kinds[telemetry.FlightDrainCommit] != rounds {
		t.Fatalf("%d drain-commit events, want %d", kinds[telemetry.FlightDrainCommit], rounds)
	}
	for _, e := range rep.FlightEvents {
		if e.Kind == telemetry.FlightDrainCommit && e.Aux2 == 0 {
			t.Fatalf("drain-commit event reports zero lines: %v", e)
		}
	}
}
