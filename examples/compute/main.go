// compute: matrix multiplication with restart points after each row (paper
// §5.3's RP-placement recipe), crashed twice mid-computation and resumed
// from the persistent per-thread row counters each time.
//
//	go run ./examples/compute
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"github.com/respct/respct/internal/apps"
	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
)

func main() {
	const (
		n       = 640
		threads = 4
		seed    = 21
	)
	want := apps.MatMulTransient(n, threads, seed)
	fmt.Printf("transient %dx%d matmul checksum: %.6f\n", n, n, want)

	heap := pmem.New(pmem.NVMMConfig(256 << 20))
	rt, err := core.NewRuntime(heap, core.Config{Threads: threads})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := apps.NewMatMul(rt, 0, n, seed); err != nil {
		log.Fatal(err)
	}
	rt.CheckpointIdle() // creation durable before the first crash can hit

	for attempt := 1; ; attempt++ {
		m, err := apps.OpenMatMul(rt, 0)
		if err != nil {
			log.Fatal(err)
		}
		ck := rt.StartCheckpointer(5 * time.Millisecond)
		done := make(chan struct{})
		go func() { m.Run(); close(done) }()

		if attempt <= 2 {
			time.Sleep(120 * time.Millisecond) // let some rows checkpoint
			// Crash mid-epoch: stop checkpointing, let the workers finish
			// more rows in an epoch that never commits, and write every
			// dirty line back first (the worst case): the epoch's row
			// counters and output rows reach NVMM, and recovery must roll
			// the counters back.
			ck.Stop()
			time.Sleep(20 * time.Millisecond)
			heap.EvictAll()
			heap.Crash()
			<-done
			rt2, report, err := core.Recover(heap, core.Config{Threads: threads}, 2)
			if err != nil {
				log.Fatal(err)
			}
			rt = rt2
			resumed, err := apps.OpenMatMul(rt, 0)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("crash %d: rolled back epoch %d (%d cells); %d/%d rows durable, resuming\n",
				attempt, report.FailedEpoch, report.CellsRolledBack, resumed.RowsDone(), n)
			continue
		}

		<-done
		ck.Stop()
		got := m.Checksum()
		fmt.Printf("after %d crashes, checksum: %.6f\n", attempt-1, got)
		if math.Abs(got-want) > 1e-6*math.Abs(want) {
			log.Fatal("checksum mismatch")
		}
		fmt.Println("result identical to the uninterrupted run")
		return
	}
}
