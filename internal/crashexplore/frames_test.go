package crashexplore

import (
	"testing"

	"github.com/respct/respct/internal/crash"
)

// TestKVFramesFallsBackToPreviousChain pins the kv-frames premise without
// any injected heap crash: the final snapshot's write budget fires, its
// manifest update never lands, and recovery from the frame store therefore
// reproduces the state certified by the PREVIOUS snapshot — strictly older
// than the heap's own final durable epoch.
func TestKVFramesFallsBackToPreviousChain(t *testing.T) {
	w, err := Lookup("kv-frames")
	if err != nil {
		t.Fatal(err)
	}
	_, run, err := runOnce(w, nil, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	fr := run.subject.(*crash.FramedKV)
	if !fr.FS.Crashed() {
		t.Fatal("final snapshot's write budget never fired")
	}
	finalDurable := fr.RT.DurableEpoch()
	recs, err := run.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d recovered heaps", len(recs))
	}
	// The chain tip is the snapshot before the aborted one, so the restored
	// image's failed epoch must trail the heap's own post-run epoch by
	// exactly one checkpoint.
	if recs[0].FailedEpoch != finalDurable-1 {
		t.Fatalf("restored failed epoch %d, heap's final durable epoch %d — fallback should trail by one checkpoint",
			recs[0].FailedEpoch, finalDurable)
	}
	if run.Certified(0)[recs[0].FailedEpoch-1] == nil {
		t.Fatalf("no certified state for epoch %d", recs[0].FailedEpoch-1)
	}
}
