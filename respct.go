package respct

// This file is the public API of the library: aliases and constructors over
// the implementation packages under internal/. Downstream modules import
// "github.com/respct/respct" and use exactly what the examples and the
// paper's Table 1 show; the internal packages stay free to reorganise.

import (
	"io"
	"time"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/frame"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/structures"
)

// ---------------------------------------------------------------------------
// Simulated NVMM (internal/pmem)

// Heap is a simulated NVMM module: a volatile image in front of a
// persistent image, moved line by line through flushes or eviction.
type Heap = pmem.Heap

// Addr is a byte offset into a Heap; 0 is the nil address.
type Addr = pmem.Addr

// HeapConfig parameterises a simulated heap (size, latency model, chaos
// mode, eADR).
type HeapConfig = pmem.Config

// Flusher issues asynchronous cache-line write-backs (clwb/sfence).
type Flusher = pmem.Flusher

// Evictor writes dirty lines back at random, modelling the hardware cache
// replacement policy (chaos-mode heaps only).
type Evictor = pmem.Evictor

// LineSize is the simulated cache-line size in bytes.
const LineSize = pmem.LineSize

// NilAddr is the zero Addr.
const NilAddr = pmem.NilAddr

// NewHeap creates a heap from an explicit configuration.
func NewHeap(cfg HeapConfig) *Heap { return pmem.New(cfg) }

// DRAM returns a configuration modelling DRAM latencies.
func DRAM(size int64) HeapConfig { return pmem.DRAMConfig(size) }

// NVMM returns a configuration modelling Optane-like NVMM latencies.
func NVMM(size int64) HeapConfig { return pmem.NVMMConfig(size) }

// EADR returns an NVMM configuration whose caches are inside the
// persistence domain (battery-backed): crashes preserve the volatile image
// and flushes cost nothing.
func EADR(size int64) HeapConfig { return pmem.EADRConfig(size) }

// WriteSnapshot writes h's persistent image — what a crash would leave — to w
// as one full frame container (docs/SNAPSHOT-FORMAT.md). Snapshot a quiesced
// heap: one being written concurrently yields a word-consistent blur.
func WriteSnapshot(w io.Writer, h *Heap) error {
	_, err := frame.WriteFull(w, frame.HeapSource{H: h}, frame.Params{Compression: frame.CompressFlate})
	return err
}

// OpenSnapshot reads a container written by WriteSnapshot, returning the
// post-reboot view of that machine. cfg's Size is the snapshot's.
func OpenSnapshot(r io.Reader, cfg HeapConfig) (*Heap, error) {
	sink := &frame.HeapSink{Config: cfg}
	if _, err := frame.RestoreStream(sink, r); err != nil {
		return nil, err
	}
	return sink.Heap()
}

// NewEvictor creates a chaos evictor for crash testing.
func NewEvictor(h *Heap, rate int, seed int64) *Evictor { return pmem.NewEvictor(h, rate, seed) }

// ---------------------------------------------------------------------------
// The ResPCT runtime (internal/core)

// Runtime is the ResPCT runtime for one heap: the global epoch, the
// checkpoint machinery and the crash-consistent allocator.
type Runtime = core.Runtime

// Config parameterises a Runtime (worker count and algorithm switches).
// Setting AsyncFlush pipelines checkpoints: workers pause only for the cut,
// the flush and the durable epoch commit run in a background drain
// (Runtime.WaitDrain joins it), and the recovery staleness bound grows to
// two checkpoint intervals.
type Config = core.Config

// Thread is a worker's handle: restart points, InCLL updates, tracking.
type Thread = core.Thread

// InCLL is a handle to an in-cache-line-logged variable (paper Fig. 2).
type InCLL = core.InCLL

// Arena is the crash-consistent persistent allocator.
type Arena = core.Arena

// Checkpointer drives periodic checkpoints.
type Checkpointer = core.Checkpointer

// CheckpointInfo describes one completed checkpoint.
type CheckpointInfo = core.CheckpointInfo

// RecoveryReport describes what a recovery pass did.
type RecoveryReport = core.RecoveryReport

// CellSize is the footprint of one InCLL cell in bytes.
const CellSize = core.CellSize

// MaxThreads is the maximum worker count a Runtime supports.
const MaxThreads = core.MaxThreads

// New formats a fresh heap for ResPCT and returns its runtime. Use Recover
// for a heap holding a previous execution's state.
func New(h *Heap, cfg Config) (*Runtime, error) { return core.NewRuntime(h, cfg) }

// Recover reconstructs a consistent runtime from a crashed heap (paper
// Fig. 5), rolling every InCLL variable modified during the failed epoch
// back to its logged value. parallelism sets the scan's goroutine count.
func Recover(h *Heap, cfg Config, parallelism int) (*Runtime, *RecoveryReport, error) {
	return core.Recover(h, cfg, parallelism)
}

// Cell returns the i-th InCLL cell of an Arena block payload.
func Cell(payload Addr, i int) InCLL { return core.Cell(payload, i) }

// RawBase returns the address of the first raw word of a payload allocated
// with the given cell count.
func RawBase(payload Addr, cells int) Addr { return core.RawBase(payload, cells) }

// InCLLAt wraps the InCLL cell starting at a (validated).
func InCLLAt(a Addr) InCLL { return core.InCLLAt(a) }

// ---------------------------------------------------------------------------
// Persistent data structures (internal/structures)

// Map is a persistent concurrent hash map (lock per bucket, in-bucket
// slots + overflow chains) managed by ResPCT.
type Map = structures.RespctMap

// Queue is a persistent concurrent FIFO (single lock) managed by ResPCT.
type Queue = structures.RespctQueue

// SkipList is a persistent sorted map with range scans managed by ResPCT.
type SkipList = structures.RespctSkipList

// Log is a persistent append-only record log managed by ResPCT.
type Log = structures.RespctLog

// NewMap creates a persistent map with nBucket buckets published under heap
// root slot rootIdx.
func NewMap(rt *Runtime, rootIdx, nBucket int) (*Map, error) {
	return structures.NewRespctMap(rt, rootIdx, nBucket)
}

// OpenMap reattaches to a map published under rootIdx after recovery.
func OpenMap(rt *Runtime, rootIdx int) (*Map, error) {
	return structures.OpenRespctMap(rt, rootIdx)
}

// NewQueue creates a persistent queue published under rootIdx.
func NewQueue(rt *Runtime, rootIdx int) (*Queue, error) {
	return structures.NewRespctQueue(rt, rootIdx)
}

// OpenQueue reattaches to a queue published under rootIdx after recovery.
func OpenQueue(rt *Runtime, rootIdx int) (*Queue, error) {
	return structures.OpenRespctQueue(rt, rootIdx)
}

// NewSkipList creates a persistent sorted map published under rootIdx.
func NewSkipList(rt *Runtime, rootIdx int) (*SkipList, error) {
	return structures.NewRespctSkipList(rt, rootIdx)
}

// NewLog creates a persistent append-only log published under rootIdx.
func NewLog(rt *Runtime, rootIdx int) (*Log, error) {
	return structures.NewRespctLog(rt, rootIdx)
}

// OpenLog reattaches to a log published under rootIdx after recovery.
func OpenLog(rt *Runtime, rootIdx int) (*Log, error) {
	return structures.OpenRespctLog(rt, rootIdx)
}

// OpenSkipList reattaches to a sorted map published under rootIdx after
// recovery.
func OpenSkipList(rt *Runtime, rootIdx int) (*SkipList, error) {
	return structures.OpenRespctSkipList(rt, rootIdx)
}

// ---------------------------------------------------------------------------
// Convenience

// StartCheckpointing formats nothing and simply starts a periodic
// checkpointer on rt — shorthand for rt.StartCheckpointer(interval).
func StartCheckpointing(rt *Runtime, interval time.Duration) *Checkpointer {
	return rt.StartCheckpointer(interval)
}
