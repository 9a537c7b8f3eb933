package pmem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
)

const (
	// LineSize is the size in bytes of a simulated cache line, the unit of
	// persistence (PCSO orders writes within a line).
	LineSize = 64
	// WordSize is the size in bytes of the word granularity of the heap.
	WordSize = 8
	// WordsPerLine is the number of 8-byte words in a cache line.
	WordsPerLine = LineSize / WordSize

	// NumRoots is the number of named persistent root slots. Each root
	// occupies a full cache line so that higher layers can wrap it in an
	// in-cache-line log.
	NumRoots = 64

	superblockLines = 1 // line 0: epoch word + heap metadata
	rootLines       = NumRoots

	// ReservedBytes is what every heap reserves below DataStart: the
	// superblock and the root table.
	ReservedBytes = (superblockLines + rootLines) * LineSize

	magicWord = 0x52657350435469 // "ResPCTi"

	// lock striping for Chaos mode
	numLockStripes = 1024
)

// Addr is a byte offset into the heap. It must be 8-byte aligned for word
// operations. Addr 0 lies inside the superblock and is never handed out by
// allocators, so it doubles as the nil address.
type Addr uint64

// NilAddr is the zero Addr, used as a null persistent pointer.
const NilAddr Addr = 0

// Config parameterises a simulated heap.
type Config struct {
	// Size is the heap size in bytes. It is rounded up to a whole number
	// of cache lines. The superblock and root table are carved out of it.
	Size int64

	// LoadPenalty, StorePenalty, FlushPenalty and FencePenalty are spin
	// iterations charged per Load64, Store64, line write-back and SFence
	// respectively. They model the latency gap between DRAM and NVMM.
	LoadPenalty, StorePenalty, FlushPenalty, FencePenalty int

	// Chaos enables crash-test mode: every store, CAS, write-back and
	// eviction takes a striped per-line lock so that line write-back is
	// atomic with respect to concurrent stores (preserving PCSO exactly),
	// and the Evictor may be used to write dirty lines back at arbitrary
	// moments.
	Chaos bool

	// EADR models the Enhanced Asynchronous DRAM Refresh platforms the
	// paper's §6 discusses: the caches belong to the persistence domain
	// (a battery flushes them on power failure), so a crash preserves the
	// entire volatile image and clwb/sfence become unnecessary for
	// persistence.
	EADR bool

	// Seed seeds the heap-level RNG used by EvictRandom. Zero means 1.
	Seed int64
}

// DRAMConfig returns a Config modelling data placed in DRAM: no access
// penalties. Flushing a DRAM line is meaningless for persistence but is
// still charged zero.
func DRAMConfig(size int64) Config {
	return Config{Size: size}
}

// EADRConfig returns an NVMM-latency Config whose caches are inside the
// persistence domain (§6's eADR): crash preserves the volatile image and
// flushes/fences cost nothing because they are unnecessary.
func EADRConfig(size int64) Config {
	c := NVMMConfig(size)
	c.EADR = true
	c.FlushPenalty = 0
	c.FencePenalty = 0
	return c
}

// NVMMConfig returns a Config modelling Intel Optane DCPMM-like latency.
// The per-access penalties are deliberately small: they represent the
// *amortised* extra cost of NVMM over DRAM (raw media reads are 2-3x slower,
// but most program accesses hit the volatile caches, and consecutive
// accesses to one line — the InCLL pattern — pay the miss once). The bulk
// of the NVMM cost sits where it does on real hardware: clwb is
// asynchronous and pipelines across lines (moderate per-line FlushPenalty),
// while sfence must wait for every outstanding write-back to reach the
// DIMM (large FencePenalty) — which is exactly why per-operation
// flush+fence designs lose to checkpointing designs that fence once per
// epoch. Values are spin iterations (roughly half a nanosecond each).
func NVMMConfig(size int64) Config {
	return Config{
		Size:         size,
		LoadPenalty:  4,
		StorePenalty: 2,
		FlushPenalty: 120,
		FencePenalty: 400,
	}
}

// Stats aggregates heap-level event counters.
type Stats struct {
	Evictions  uint64 // lines written back by the evictor
	Flushes    uint64 // lines written back by CLWB/SFence
	Fences     uint64 // SFence calls
	Crashes    uint64 // Crash calls since New
	Reopens    uint64 // Reopen calls since New
	LinesTotal int    // heap size in lines
}

// Heap is a simulated NVMM module plus the volatile caches in front of it.
// All word accesses are atomic, so a Heap is safe for concurrent use;
// higher-level race freedom (the paper's lock discipline) is the caller's
// business.
type Heap struct {
	cfg      Config
	volatile []uint64 // what the program sees (cache + memory)
	persist  []uint64 // what survives a crash (NVMM media)
	dirty    []uint32 // per-line dirty hint for the evictor
	nLines   int
	nWords   int

	locks [numLockStripes]lineMutex // chaos mode only

	crashed atomic.Bool

	evictions atomic.Uint64
	flushes   atomic.Uint64
	fences    atomic.Uint64
	crashes   atomic.Uint64
	reopens   atomic.Uint64

	rngMu sync.Mutex
	rng   *rand.Rand

	// obs is the attached observers' fan-out (see trace.go); nil while
	// nothing observes the heap, so every event source costs one atomic
	// pointer load. obsMu serialises its replacement.
	obs   atomic.Pointer[fanout]
	obsMu sync.Mutex
}

//respct:linefit
type lineMutex struct {
	mu sync.Mutex
	_  [56]byte // pad to a cache line to avoid false sharing between stripes
}

// New creates a heap of cfg.Size bytes with a zeroed persistent image and an
// initialised superblock (magic + size) in both images.
//
//respct:allow atomicmix — construction-time stores: the heap is not shared until New returns
func New(cfg Config) *Heap {
	if cfg.Size < LineSize*(superblockLines+rootLines+1) {
		cfg.Size = LineSize * (superblockLines + rootLines + 64)
	}
	lines := int((cfg.Size + LineSize - 1) / LineSize)
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	h := &Heap{
		cfg:      cfg,
		volatile: make([]uint64, lines*WordsPerLine),
		persist:  make([]uint64, lines*WordsPerLine),
		dirty:    make([]uint32, lines),
		nLines:   lines,
		nWords:   lines * WordsPerLine,
		rng:      rand.New(rand.NewSource(seed)),
	}
	h.volatile[1] = magicWord
	h.volatile[2] = uint64(h.nWords)
	h.persist[1] = magicWord
	h.persist[2] = uint64(h.nWords)
	return h
}

// Config returns the configuration the heap was created with.
func (h *Heap) Config() Config { return h.cfg }

// Size returns the heap size in bytes.
func (h *Heap) Size() int64 { return int64(h.nWords) * WordSize }

// Lines returns the heap size in cache lines.
func (h *Heap) Lines() int { return h.nLines }

// DataStart returns the first address available to allocators, just past the
// superblock and the root table. It is line-aligned.
func (h *Heap) DataStart() Addr { return ReservedBytes }

// EpochAddr returns the address of the persistent global epoch counter
// (word 0 of the superblock). The checkpoint procedure increments and
// flushes it; recovery reads it from the persistent image.
func (h *Heap) EpochAddr() Addr { return 0 }

// RootAddr returns the address of named root slot i. Each root owns a full
// cache line; RootAddr points at its first word.
func (h *Heap) RootAddr(i int) Addr {
	if i < 0 || i >= NumRoots {
		panic(fmt.Sprintf("pmem: root index %d out of range [0,%d)", i, NumRoots))
	}
	return Addr((superblockLines + i) * LineSize)
}

func (h *Heap) wordIndex(a Addr) int {
	i := int(a >> 3)
	if a&7 != 0 || i >= h.nWords {
		h.badAddr(a)
	}
	return i
}

//go:noinline
func (h *Heap) badAddr(a Addr) {
	if a%WordSize != 0 {
		panic(fmt.Sprintf("pmem: unaligned address %#x", uint64(a)))
	}
	panic(fmt.Sprintf("pmem: address %#x out of range", uint64(a)))
}

// LineOf returns the cache line index containing a.
func LineOf(a Addr) int { return int(a / LineSize) }

// LineAddr returns the address of the first word of line.
func LineAddr(line int) Addr { return Addr(line * LineSize) }

// AlignUp rounds a up to the next multiple of align (a power of two).
func AlignUp(a Addr, align uint64) Addr {
	return Addr((uint64(a) + align - 1) &^ (align - 1))
}

func (h *Heap) lockLine(line int) *sync.Mutex {
	return &h.locks[line&(numLockStripes-1)].mu
}

// Load64 reads the word at a from the volatile image.
func (h *Heap) Load64(a Addr) uint64 {
	if h.cfg.LoadPenalty > 0 {
		spin(h.cfg.LoadPenalty)
	}
	return atomic.LoadUint64(&h.volatile[h.wordIndex(a)])
}

// Store64 writes the word at a in the volatile image and marks its line
// dirty. The write reaches the persistent image only through CLWB/SFence or
// eviction.
func (h *Heap) Store64(a Addr, v uint64) {
	if h.cfg.StorePenalty > 0 {
		spin(h.cfg.StorePenalty)
	}
	i := h.wordIndex(a)
	line := i / WordsPerLine
	if h.cfg.Chaos {
		h.storeChaos(i, line, v)
	} else {
		atomic.StoreUint64(&h.volatile[i], v)
		h.markLine(line)
	}
	if f := h.obs.Load(); f != nil {
		f.emit(TraceEvent{Kind: EvStore, Line: line, Addr: a})
	}
}

// markLine sets the line's dirty hint. Hot lines are stored over and over
// between write-backs, so the flag is usually already set: testing first
// turns the common case into a read-only probe and spares the cache traffic
// of re-publishing an unchanged flag.
func (h *Heap) markLine(line int) {
	if atomic.LoadUint32(&h.dirty[line]) == 0 {
		atomic.StoreUint32(&h.dirty[line], 1)
	}
}

//go:noinline
func (h *Heap) storeChaos(i, line int, v uint64) {
	mu := h.lockLine(line)
	mu.Lock()
	atomic.StoreUint64(&h.volatile[i], v)
	atomic.StoreUint32(&h.dirty[line], 1)
	mu.Unlock()
}

// CAS64 performs an atomic compare-and-swap on the word at a in the volatile
// image. It exists for the lock-free baseline algorithms (the ResPCT
// programming model itself forbids atomics on managed data, paper §2.1).
func (h *Heap) CAS64(a Addr, old, new uint64) bool {
	if h.cfg.StorePenalty > 0 {
		spin(h.cfg.StorePenalty)
	}
	i := h.wordIndex(a)
	line := i / WordsPerLine
	var ok bool
	if h.cfg.Chaos {
		mu := h.lockLine(line)
		mu.Lock()
		ok = atomic.CompareAndSwapUint64(&h.volatile[i], old, new)
		if ok {
			atomic.StoreUint32(&h.dirty[line], 1)
		}
		mu.Unlock()
	} else if ok = atomic.CompareAndSwapUint64(&h.volatile[i], old, new); ok {
		h.markLine(line)
	}
	if !ok {
		return false
	}
	if f := h.obs.Load(); f != nil {
		f.emit(TraceEvent{Kind: EvStore, Line: line, Addr: a})
	}
	return true
}

// Add64 atomically adds delta to the word at a and returns the new value.
func (h *Heap) Add64(a Addr, delta uint64) uint64 {
	if h.cfg.StorePenalty > 0 {
		spin(h.cfg.StorePenalty)
	}
	i := h.wordIndex(a)
	line := i / WordsPerLine
	var v uint64
	if h.cfg.Chaos {
		mu := h.lockLine(line)
		mu.Lock()
		v = atomic.AddUint64(&h.volatile[i], delta)
		atomic.StoreUint32(&h.dirty[line], 1)
		mu.Unlock()
	} else {
		v = atomic.AddUint64(&h.volatile[i], delta)
		h.markLine(line)
	}
	if f := h.obs.Load(); f != nil {
		f.emit(TraceEvent{Kind: EvStore, Line: line, Addr: a})
	}
	return v
}

// LoadPersistent64 reads the word at a from the persistent image. It is the
// recovery-side view: what a program would find in NVMM after a crash.
func (h *Heap) LoadPersistent64(a Addr) uint64 {
	return atomic.LoadUint64(&h.persist[h.wordIndex(a)])
}

// StoreBytes writes b at address a, packing bytes into words little-endian.
// a must be word-aligned; the write covers ceil(len(b)/8) words, zero-padding
// the tail of the last word. Full words are packed with a single 8-byte
// load instead of the byte loop; the modeled store latency is unchanged
// (one Store64-equivalent penalty per word).
func (h *Heap) StoreBytes(a Addr, b []byte) {
	off := 0
	for ; off+WordSize <= len(b); off += WordSize {
		h.Store64(a+Addr(off), binary.LittleEndian.Uint64(b[off:]))
	}
	if off < len(b) {
		var w uint64
		for j := 0; off+j < len(b); j++ {
			w |= uint64(b[off+j]) << (8 * j)
		}
		h.Store64(a+Addr(off), w)
	}
}

// StoreString is StoreBytes for string payloads, avoiding the []byte(s)
// copy at every call site. The explicit little-endian OR chain below is
// load-merged by the compiler into a single 8-byte read.
func (h *Heap) StoreString(a Addr, s string) {
	off := 0
	for ; off+WordSize <= len(s); off += WordSize {
		w := uint64(s[off]) | uint64(s[off+1])<<8 | uint64(s[off+2])<<16 |
			uint64(s[off+3])<<24 | uint64(s[off+4])<<32 | uint64(s[off+5])<<40 |
			uint64(s[off+6])<<48 | uint64(s[off+7])<<56
		h.Store64(a+Addr(off), w)
	}
	if off < len(s) {
		var w uint64
		for j := 0; off+j < len(s); j++ {
			w |= uint64(s[off+j]) << (8 * j)
		}
		h.Store64(a+Addr(off), w)
	}
}

// EqualString reports whether the n bytes at word-aligned address a equal s
// (n = len(s)), reading whole words and never allocating — the comparison
// the KV chain walk performs per probe. Tail bytes beyond len(s) in the
// last word are ignored.
func (h *Heap) EqualString(a Addr, s string) bool {
	off := 0
	for ; off+WordSize <= len(s); off += WordSize {
		w := uint64(s[off]) | uint64(s[off+1])<<8 | uint64(s[off+2])<<16 |
			uint64(s[off+3])<<24 | uint64(s[off+4])<<32 | uint64(s[off+5])<<40 |
			uint64(s[off+6])<<48 | uint64(s[off+7])<<56
		if h.Load64(a+Addr(off)) != w {
			return false
		}
	}
	if off < len(s) {
		got := h.Load64(a + Addr(off))
		for j := 0; off+j < len(s); j++ {
			if byte(got>>(8*j)) != s[off+j] {
				return false
			}
		}
	}
	return true
}

// LoadBytes reads n bytes starting at word-aligned address a into a fresh
// slice.
func (h *Heap) LoadBytes(a Addr, n int) []byte {
	return h.AppendBytes(make([]byte, 0, n), a, n)
}

// AppendBytes appends the n bytes starting at word-aligned address a to dst
// and returns the extended slice — LoadBytes without the allocation when dst
// has room, which is how scans copy keys and values straight into a reused
// reply buffer.
func (h *Heap) AppendBytes(dst []byte, a Addr, n int) []byte {
	dst = slices.Grow(dst, n)
	off := 0
	for ; off+WordSize <= n; off += WordSize {
		dst = binary.LittleEndian.AppendUint64(dst, h.Load64(a+Addr(off)))
	}
	if off < n {
		w := h.Load64(a + Addr(off))
		for j := 0; off+j < n; j++ {
			dst = append(dst, byte(w>>(8*j)))
		}
	}
	return dst
}

// LoadPersistentBytes reads n bytes from the persistent image.
func (h *Heap) LoadPersistentBytes(a Addr, n int) []byte {
	b := make([]byte, n)
	for off := 0; off < n; off += WordSize {
		w := h.LoadPersistent64(a + Addr(off))
		for j := 0; j < WordSize && off+j < n; j++ {
			b[off+j] = byte(w >> (8 * j))
		}
	}
	return b
}

// writeBackLine copies one line from the volatile image to the persistent
// image. In Chaos mode it holds the line's lock so the copy is atomic with
// respect to concurrent stores, which is what makes PCSO's same-line
// ordering hold exactly. The write-back is reported to the observers after
// the lock is dropped, so by the time a crash trigger fires from an
// observer, this line is in the persistent image and later write-backs are
// not; whether the copy changed the image is computed only for a
// ChangeObserver.
func (h *Heap) writeBackLine(line int, cause WBCause) {
	if h.crashed.Load() {
		return // the machine is down; nothing reaches the media anymore
	}
	f := h.obs.Load()
	compare := f != nil && f.changed
	var changed bool
	if h.cfg.Chaos {
		mu := h.lockLine(line)
		mu.Lock()
		changed = h.copyLine(line, compare)
		mu.Unlock()
	} else {
		changed = h.copyLine(line, compare)
	}
	if f != nil {
		f.emit(TraceEvent{Kind: EvWriteBack, Line: line, Cause: cause, Changed: changed})
	}
}

// copyLine copies line to the persistent image and clears its dirty hint;
// with compare it also reports whether any persistent word changed.
func (h *Heap) copyLine(line int, compare bool) (changed bool) {
	base := line * WordsPerLine
	if compare {
		for i := base; i < base+WordsPerLine; i++ {
			v := atomic.LoadUint64(&h.volatile[i])
			if atomic.LoadUint64(&h.persist[i]) != v {
				changed = true
				atomic.StoreUint64(&h.persist[i], v)
			}
		}
	} else {
		for i := base; i < base+WordsPerLine; i++ {
			atomic.StoreUint64(&h.persist[i], atomic.LoadUint64(&h.volatile[i]))
		}
	}
	atomic.StoreUint32(&h.dirty[line], 0)
	return changed
}

// EvictLine simulates a hardware cache eviction of the given line: if it is
// dirty it is written back to the persistent image. Returns whether a
// write-back happened.
func (h *Heap) EvictLine(line int) bool {
	if line < 0 || line >= h.nLines {
		panic(fmt.Sprintf("pmem: line %d out of range", line))
	}
	if atomic.LoadUint32(&h.dirty[line]) == 0 {
		return false
	}
	h.writeBackLine(line, CauseEvict)
	h.evictions.Add(1)
	return true
}

// EvictRandom tries n random lines and evicts the dirty ones, simulating the
// unknown replacement policy. It returns the number of lines written back.
// All n samples are drawn under one rngMu acquisition; the write-backs happen
// after the lock is dropped, so concurrent evictors only contend on the RNG
// for the duration of the draw.
func (h *Heap) EvictRandom(n int) int {
	if n <= 0 {
		return 0
	}
	lines := make([]int, n)
	h.rngMu.Lock()
	for i := range lines {
		lines[i] = h.rng.Intn(h.nLines)
	}
	h.rngMu.Unlock()
	evicted := 0
	for _, line := range lines {
		if h.EvictLine(line) {
			evicted++
		}
	}
	return evicted
}

// EvictAll writes back every dirty line. Tests use it to simulate the
// worst-case "everything already reached NVMM" schedule.
func (h *Heap) EvictAll() int {
	evicted := 0
	for line := 0; line < h.nLines; line++ {
		if h.EvictLine(line) {
			evicted++
		}
	}
	return evicted
}

// Crash simulates a power failure: from this point no write-back reaches the
// persistent image, and the volatile image is dead. Outstanding goroutines
// may keep calling Load64/Store64 (a real crash would have stopped them
// mid-instruction); their effects are confined to the discarded volatile
// image. On an EADR heap the battery flushes the caches instead: every
// dirty line is written back before the lights go out. Observers then see
// EvCrash. Call Reopen to boot again.
func (h *Heap) Crash() {
	if h.cfg.EADR {
		// The battery-backed flush of the whole cache hierarchy.
		for line := 0; line < h.nLines; line++ {
			if atomic.LoadUint32(&h.dirty[line]) != 0 {
				h.writeBackLine(line, CauseEADR)
			}
		}
	}
	h.crashed.Store(true)
	h.crashes.Add(1)
	if f := h.obs.Load(); f != nil {
		f.emit(TraceEvent{Kind: EvCrash, Line: -1})
	}
}

// Crashed reports whether the heap is between Crash and Reopen.
func (h *Heap) Crashed() bool { return h.crashed.Load() }

// Reopen boots the machine after a Crash: the volatile image is re-initialised
// from the persistent image, exactly as load instructions after reboot would
// observe NVMM content. All dirty hints are cleared.
func (h *Heap) Reopen() {
	if !h.crashed.Load() {
		panic("pmem: Reopen without Crash")
	}
	for i := range h.volatile {
		atomic.StoreUint64(&h.volatile[i], atomic.LoadUint64(&h.persist[i]))
	}
	for i := range h.dirty {
		atomic.StoreUint32(&h.dirty[i], 0)
	}
	h.reopens.Add(1)
	h.crashed.Store(false)
}

// PersistAll copies the complete volatile image to the persistent image.
// Test helper: simulates a schedule in which every line happens to have been
// evicted.
func (h *Heap) PersistAll() {
	for line := 0; line < h.nLines; line++ {
		h.writeBackLine(line, CauseEvict)
	}
}

// SetRoot stores v in named root slot i (volatile image). Callers that need
// the root to survive a crash must flush it.
func (h *Heap) SetRoot(i int, v uint64) { h.Store64(h.RootAddr(i), v) }

// Root reads named root slot i from the volatile image.
func (h *Heap) Root(i int) uint64 { return h.Load64(h.RootAddr(i)) }

// Stats returns a snapshot of the heap's event counters.
func (h *Heap) Stats() Stats {
	return Stats{
		Evictions:  h.evictions.Load(),
		Flushes:    h.flushes.Load(),
		Fences:     h.fences.Load(),
		Crashes:    h.crashes.Load(),
		Reopens:    h.reopens.Load(),
		LinesTotal: h.nLines,
	}
}

// CheckMagic verifies the persistent superblock looks like a heap image.
func (h *Heap) CheckMagic() error {
	if got := h.LoadPersistent64(WordSize); got != magicWord {
		return fmt.Errorf("pmem: bad magic %#x in persistent image", got)
	}
	return nil
}
