// kvstore: a persistent hash map that survives process restarts through a
// heap snapshot file (one full frame container, docs/SNAPSHOT-FORMAT.md) — run
// it twice to see recovery across processes:
//
//	go run ./examples/kvstore            # first run: creates /tmp state
//	go run ./examples/kvstore            # second run: recovers and verifies
//	go run ./examples/kvstore -reset     # start over
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	respct "github.com/respct/respct"
)

func main() {
	reset := flag.Bool("reset", false, "delete existing state and start fresh")
	flag.Parse()
	path := filepath.Join(os.TempDir(), "respct-kvstore.img")
	if *reset {
		os.Remove(path)
	}

	if f, err := os.Open(path); err == nil {
		// Second run: open the snapshot as if the machine had rebooted.
		heap, err := respct.OpenSnapshot(f, respct.NVMM(0))
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		rt, report, err := respct.Recover(heap, respct.Config{Threads: 1}, 2)
		if err != nil {
			log.Fatal(err)
		}
		m, err := respct.OpenMap(rt, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("recovered from %s (failed epoch %d, %v)\n", path, report.FailedEpoch, report.Duration)
		fmt.Printf("map holds %d entries\n", m.Len())
		for k := uint64(1); k <= 5; k++ {
			v, ok := m.Get(0, k)
			fmt.Printf("  key %d -> %d (%v)\n", k, v, ok)
		}
		if v, ok := m.Get(0, 3); !ok || v != 300 {
			log.Fatalf("key 3 should be 300, got %d,%v", v, ok)
		}
		fmt.Println("state survived the process boundary; run with -reset to start over")
		return
	}

	// First run: build the store, checkpoint, snapshot, exit.
	heap := respct.NewHeap(respct.NVMM(64 << 20))
	rt, err := respct.New(heap, respct.Config{Threads: 1})
	if err != nil {
		log.Fatal(err)
	}
	m, err := respct.NewMap(rt, 0, 1024)
	if err != nil {
		log.Fatal(err)
	}
	t := rt.Thread(0)
	start := time.Now()
	for k := uint64(1); k <= 10_000; k++ {
		m.Insert(0, k, k*100)
		m.PerOp(0)
	}
	fmt.Printf("inserted 10000 entries in %v\n", time.Since(start).Round(time.Millisecond))

	// Make it durable, then write the persistent image to disk.
	t.CheckpointAllow()
	rt.Checkpoint()
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := respct.WriteSnapshot(f, heap); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("persistent image written to %s — run again to recover it\n", path)
}
