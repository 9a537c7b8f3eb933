//respct:exportdoc

// Package pmem simulates byte-addressable non-volatile main memory (NVMM)
// sitting behind volatile processor caches, as described in the system model
// of the ResPCT paper (EuroSys 2022, §2.1).
//
// The simulation keeps two images of memory:
//
//   - the volatile image: what Load64/Store64 observe. It plays the role of
//     the cache hierarchy plus NVMM as seen by a running program.
//   - the persistent image: what survives a Crash. It plays the role of the
//     NVMM media content.
//
// A 64-byte cache line is the unit of persistence. A line moves from the
// volatile image to the persistent image when
//
//   - the program writes it back explicitly (Flusher.CLWB followed by
//     Flusher.SFence, modelling clwb/sfence), or
//   - the hardware evicts it (Evictor, modelling the unknown cache
//     replacement policy), which may happen at any moment in Chaos mode.
//
// Write-back copies a whole line at once, which gives exactly the Persistent
// Cache Store Order (PCSO) guarantee the paper's In-Cache-Line Logging relies
// on: two stores to the same line can never reach the persistent image out of
// program order, while stores to different lines can.
//
// Crash discards the volatile image; Reopen starts a new "boot" whose
// volatile image is initialised from the persistent one, which is what a real
// machine sees after a power failure.
//
// Every persistence event — a word store, a line queued by a Flusher, a line
// write-back, a completed fence, a higher-layer annotation and the crash — is
// reported as a TraceEvent to the Observers attached through Heap.Observe
// (trace.go). That one hook serves every consumer: the crash explorer's
// Recorder and the persistency sanitizer (internal/psan). With nothing
// attached an event costs one atomic pointer load.
//
// pmem knows no file format: the snapshot engine reads the persistent image
// through ReadPersistentAt and boots a heap from a restored one through
// FillImageAt (image.go).
//
// Config carries a simple latency model (spin loops per load, store, flush
// and fence) so that the cost difference between DRAM and NVMM, and the cost
// of flush instructions, shows up in benchmarks.
package pmem
