package kv

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/structures"
)

// Structures mode turns a RespctStore into the multi-model store of
// docs/COMMANDS.md: alongside the hash index it maintains a persistent
// ordered index over the string keys (SCAN), a directory of named queues and
// logs (QPUSH/QPOP, LAPPEND/LRANGE), and per-key TTLs (EXPIRE/TTL) swept at
// checkpoint boundaries so expiry becomes durable atomically with the cut.
//
// Persistent layout (four consecutive root slots):
//
//	rootIdx+0  hash index (RespctMap), as in the plain store
//	rootIdx+1  ordered index (RespctStrSkipList: key -> record address)
//	rootIdx+2  structure directory: a chain of dirent blocks, each
//	           1 InCLL cell (next) + raw [desc|tag, nameLen, name bytes]
//	rootIdx+3  layout stamp (plain stores too; see layoutStamp)
//
// Records get a second InCLL cell holding the expiry deadline in clock
// milliseconds (0 = none), whose spare word holds the record's handle to its
// key's ordered-index node (see ordPut). Reads filter expired records
// immediately; SweepExpired removes them physically and runs on the
// checkpointer's dedicated sweeper thread just before the checkpoint cut.

// Errors returned by structure operations.
var (
	// ErrWrongType is a structure operation on a name already bound to a
	// different structure kind.
	ErrWrongType = errors.New("kv: name bound to a different structure kind")
	// ErrStructuresDisabled is a structure operation on a store built
	// without StoreOptions.Structures.
	ErrStructuresDisabled = errors.New("kv: structures mode disabled")
	// ErrLayoutMismatch is an open of a heap whose records were laid out
	// differently: the other StoreOptions.Structures setting, or a binary
	// with another record layout revision (images from before the stamp
	// existed read as revision 0).
	ErrLayoutMismatch = errors.New("kv: heap record layout does not match this store")
)

// StructOps is the structure surface the executor drives, implemented by
// RespctStore and GatedStore (single heap) and shard.Store (fan-out). th is
// the store thread index, as in Store.
type StructOps interface {
	// ScanInto replaces dst's contents with up to limit entries (limit <= 0:
	// unbounded) with from <= key <= to in key order (empty to = unbounded),
	// skipping expired keys. It reuses dst's buffer and allocates nothing
	// once that buffer is large enough.
	ScanInto(th int, from, to string, limit int, dst *Entries)
	// Scan is ScanInto copied out into a result the caller keeps.
	Scan(th int, from, to string, limit int) []Entry
	// QPush appends value to the named queue, creating it on first use.
	QPush(th int, name string, value []byte) error
	// QPop pops the named queue's head; ok is false when the queue is empty
	// or does not exist.
	QPop(th int, name string) (value []byte, ok bool, err error)
	// LAppend appends record to the named log (created on first use) and
	// returns its index.
	LAppend(th int, name string, record []byte) (uint64, error)
	// LRange reads count records starting at index from; a missing log
	// yields an empty result.
	LRange(th int, name string, from uint64, count uint32) ([][]byte, error)
	// Expire sets key's TTL to ms milliseconds from now (0 clears it); it
	// reports whether the key was live.
	Expire(th int, key string, ms uint64) bool
	// TTL returns key's remaining TTL in milliseconds (0 = live with no
	// expiry); found is false for a missing or expired key.
	TTL(th int, key string) (ms uint64, found bool)
}

// Batcher executes an atomic multi-key batch: every key of a MULTI (or
// FlagAtomic frame) must land in one shard, and the whole batch runs under
// that shard's single checkpoint-prevent window so a crash can never
// persist a prefix of it. Implemented by GatedStore (one shard) and
// shard.Store.
type Batcher interface {
	// BatchShard returns the shard index key routes to.
	BatchShard(key string) int
	// Batch runs f on shard si's bare store under one checkpoint-prevent
	// window; every store operation f performs is crash-atomic as a unit.
	Batch(th, si int, f func(st *RespctStore))
}

// StoreOptions configures NewRespctStoreOpts/OpenRespctStoreOpts.
type StoreOptions struct {
	// Buckets sizes the hash index (New only).
	Buckets int
	// Structures enables the multi-model surface. It changes the record
	// layout (an extra expiry cell per record), so a heap must be reopened
	// with the same setting it was created with.
	Structures bool
	// Clock returns the current time in milliseconds for TTL bookkeeping.
	// Nil means wall clock; crash workloads inject a deterministic clock.
	Clock func() uint64
}

// Record cell counts for the two layouts.
const (
	recCellsPlain  = 1
	recCellsStruct = 2
)

// layoutRev numbers the record layouts this binary reads and writes; bump it
// whenever either changes. 1: the expiry cell's spare word holds the
// ordered-index handle (images without a stamp, where it does not, read 0).
const layoutRev = 1

// layoutStamp is the word a store writes under root slot rootIdx+3 at
// creation and checks at every open: the revision above the structures bit.
func layoutStamp(structures bool) uint64 {
	if structures {
		return layoutRev<<1 | 1
	}
	return layoutRev << 1
}

// Directory tags (low 3 bits of a dirent's descriptor word; arena blocks
// are 8-byte aligned so the bits are free).
const (
	tagQueue = 1
	tagLog   = 2
	tagMask  = 7
)

// namedHandle is the volatile cache entry for one directory name.
type namedHandle struct {
	tag byte
	q   *structures.RespctQueue
	l   *structures.RespctLog
}

func wallClockMs() uint64 { return uint64(time.Now().UnixMilli()) }

// NewRespctStoreOpts creates a store under root slots rootIdx..rootIdx+3
// (a plain store uses only the first and the last).
func NewRespctStoreOpts(rt *core.Runtime, rootIdx int, opts StoreOptions) (*RespctStore, error) {
	idx, err := structures.NewRespctMap(rt, rootIdx, opts.Buckets)
	if err != nil {
		return nil, err
	}
	rt.Sys().Update(rt.RootInCLL(rootIdx+3), layoutStamp(opts.Structures))
	s := &RespctStore{rt: rt, index: idx, recCells: recCellsPlain}
	if opts.Structures {
		ord, err := structures.NewRespctStrSkipList(rt, rootIdx+1)
		if err != nil {
			return nil, err
		}
		s.initStructures(ord, rootIdx+2, opts.Clock)
	}
	return s, nil
}

// OpenRespctStoreOpts reattaches after recovery. Structures must match the
// setting the heap was created with, else ErrLayoutMismatch; Buckets is
// ignored.
func OpenRespctStoreOpts(rt *core.Runtime, rootIdx int, opts StoreOptions) (*RespctStore, error) {
	if got, want := rt.Read(rt.RootInCLL(rootIdx+3)), layoutStamp(opts.Structures); got != want {
		return nil, fmt.Errorf("%w: heap is stamped revision %d structures=%t, opened as revision %d structures=%t",
			ErrLayoutMismatch, got>>1, got&1 == 1, layoutRev, opts.Structures)
	}
	idx, err := structures.OpenRespctMap(rt, rootIdx)
	if err != nil {
		return nil, err
	}
	s := &RespctStore{rt: rt, index: idx, recCells: recCellsPlain}
	if opts.Structures {
		ord, err := structures.OpenRespctStrSkipList(rt, rootIdx+1)
		if err != nil {
			return nil, err
		}
		s.initStructures(ord, rootIdx+2, opts.Clock)
		s.rebuildExpiry()
	}
	return s, nil
}

func (s *RespctStore) initStructures(ord *structures.RespctStrSkipList, dirRoot int, clock func() uint64) {
	s.recCells = recCellsStruct
	s.ord = ord
	s.dirRoot = dirRoot
	s.clock = clock
	if s.clock == nil {
		s.clock = wallClockMs
	}
	s.exp = make(map[string]uint64)
	s.handles = make(map[string]*namedHandle)
	s.scanOut = make([]Entries, s.rt.Threads())
}

// Structures reports whether the store was built with the multi-model
// surface enabled.
func (s *RespctStore) Structures() bool { return s.recCells == recCellsStruct }

// rebuildExpiry repopulates the volatile expiry map from the persistent
// records after recovery (the map is an index, never the truth: the
// per-record expiry cells are).
func (s *RespctStore) rebuildExpiry() {
	for _, head := range s.index.Snapshot() {
		for rec := pmem.Addr(head); rec != pmem.NilAddr; rec = s.rt.ReadAddr(s.recNext(rec)) {
			if d := s.rt.Read(core.Cell(rec, 1)); d != 0 {
				s.exp[s.recKey(rec)] = d
			}
		}
	}
}

// recExpired reports whether rec is past its deadline (never on a plain
// store).
func (s *RespctStore) recExpired(rec pmem.Addr) bool {
	if s.recCells != recCellsStruct {
		return false
	}
	d := s.rt.Read(core.Cell(rec, 1))
	return d != 0 && d <= s.clock()
}

// recNode returns the handle rec carries to its key's ordered-index node.
func (s *RespctStore) recNode(rec pmem.Addr) pmem.Addr {
	return pmem.Addr(s.rt.Heap().Load64(core.CellAux(rec, 1)))
}

// ordPut points the ordered index at rec, key's new record, and hands rec
// the node's handle. A new key (old is NilAddr) is inserted, which walks the
// index; an overwrite repoints the node named by the outgoing record's
// handle — one logged update, no walk — and clears old's pending TTL
// bookkeeping (a SET discards the previous record, deadline included).
// Callers hold the key's stripe lock, which is what serialises the handle's
// use per key.
func (s *RespctStore) ordPut(th int, key string, old, rec pmem.Addr) {
	if s.ord == nil {
		return
	}
	var node pmem.Addr
	if old == pmem.NilAddr {
		node, _ = s.ord.Insert(th, key, uint64(rec))
	} else {
		node = s.recNode(old)
		s.ord.SetAt(th, node, uint64(rec))
		s.expDrop(key, old)
	}
	s.rt.Thread(th).StoreTracked(core.CellAux(rec, 1), uint64(node))
}

// ordDrop removes key, whose record is rec, from the ordered index and the
// expiry map. Callers hold the key's stripe lock.
func (s *RespctStore) ordDrop(th int, key string, rec pmem.Addr) {
	if s.ord == nil {
		return
	}
	s.ord.Remove(th, key)
	s.expDrop(key, rec)
}

// expDrop forgets the deadline of key's outgoing record rec. exp[key] exists
// exactly when the record's expiry cell is non-zero (both change together
// under the stripe lock), so a record without a deadline costs no expMu.
func (s *RespctStore) expDrop(key string, rec pmem.Addr) {
	if s.rt.Read(core.Cell(rec, 1)) == 0 {
		return
	}
	s.expMu.Lock()
	delete(s.exp, key)
	s.expMu.Unlock()
}

// ScanInto implements StructOps: one walk of the ordered index, appending
// each live entry's key (from its index node) and value (from its record)
// straight from the heap into dst. It holds the ordered index's lock for the
// whole walk; writers repoint the index before freeing records (see Set),
// so every address read here is live.
func (s *RespctStore) ScanInto(th int, from, to string, limit int, dst *Entries) {
	dst.Reset()
	if s.ord == nil {
		return
	}
	now := s.clock()
	h := s.rt.Heap()
	s.ord.ScanNodes(th, from, to, func(node pmem.Addr, v uint64) bool {
		rec := pmem.Addr(v)
		if d := s.rt.Read(core.Cell(rec, 1)); d != 0 && d <= now {
			return true // expired, not yet swept
		}
		dst.buf = s.ord.AppendKey(dst.buf, node)
		dst.mark()
		val, n := s.recValueAt(rec)
		dst.buf = h.AppendBytes(dst.buf, val, n)
		dst.mark()
		return limit <= 0 || dst.Len() < limit
	})
}

// Scan implements StructOps: ScanInto th's scratch, copied out.
func (s *RespctStore) Scan(th int, from, to string, limit int) []Entry {
	if s.ord == nil {
		return nil
	}
	e := &s.scanOut[th]
	s.ScanInto(th, from, to, limit, e)
	return e.Copy()
}

// Expire implements StructOps: it rewrites the record's expiry cell with
// one logged update, so the TTL is crash-atomic exactly like a SET.
func (s *RespctStore) Expire(th int, key string, ms uint64) bool {
	if s.ord == nil {
		return false
	}
	hash := FNV1a(key)
	mu := &s.locks[hash%kvStripes]
	mu.Lock()
	defer mu.Unlock()
	rec, _, _ := s.find(th, hash, key)
	if rec == pmem.NilAddr || s.recExpired(rec) {
		return false
	}
	var deadline uint64
	if ms != 0 {
		deadline = s.clock() + ms
	}
	s.rt.Thread(th).Update(core.Cell(rec, 1), deadline)
	s.expMu.Lock()
	if deadline == 0 {
		delete(s.exp, key)
	} else {
		s.exp[key] = deadline
	}
	s.expMu.Unlock()
	return true
}

// TTL implements StructOps.
func (s *RespctStore) TTL(th int, key string) (uint64, bool) {
	if s.ord == nil {
		return 0, false
	}
	hash := FNV1a(key)
	mu := &s.locks[hash%kvStripes]
	mu.Lock()
	defer mu.Unlock()
	rec, _, _ := s.find(th, hash, key)
	if rec == pmem.NilAddr {
		return 0, false
	}
	d := s.rt.Read(core.Cell(rec, 1))
	if d == 0 {
		return 0, true
	}
	now := s.clock()
	if d <= now {
		return 0, false
	}
	return d - now, true
}

// SweepExpired removes every record whose deadline is at or before now. The
// shard checkpointer calls it on its dedicated sweeper thread immediately
// before the checkpoint cut, so the removals persist atomically with the
// certified snapshot; keys are swept in sorted order to keep the persistent
// layout deterministic for crash checkers. It returns the number of keys
// removed.
func (s *RespctStore) SweepExpired(th int, now uint64) int {
	if s.ord == nil {
		return 0
	}
	s.expMu.Lock()
	due := make([]string, 0, len(s.exp))
	for k, d := range s.exp {
		if d <= now {
			due = append(due, k)
		}
	}
	s.expMu.Unlock()
	sort.Strings(due)
	n := 0
	for _, key := range due {
		if s.sweepKey(th, key, now) {
			n++
		}
	}
	return n
}

// sweepKey removes key if its persistent deadline (the truth — the expiry
// map is only a hint that may have been invalidated by a racing SET or
// EXPIRE) is still due.
func (s *RespctStore) sweepKey(th int, key string, now uint64) bool {
	hash := FNV1a(key)
	mu := &s.locks[hash%kvStripes]
	mu.Lock()
	defer mu.Unlock()
	rec, prev, _ := s.find(th, hash, key)
	if rec == pmem.NilAddr {
		return false
	}
	if d := s.rt.Read(core.Cell(rec, 1)); d == 0 || d > now {
		return false
	}
	s.unlink(th, hash, key, rec, prev)
	return true
}

// --- named structure directory ---

func (s *RespctStore) dirRootCell() core.InCLL { return s.rt.RootInCLL(s.dirRoot) }

// dirFind walks the persistent dirent chain for name. Callers hold dirMu.
func (s *RespctStore) dirFind(name string) (tag byte, desc pmem.Addr) {
	h := s.rt.Heap()
	for d := s.rt.ReadAddr(s.dirRootCell()); d != pmem.NilAddr; d = s.rt.ReadAddr(core.Cell(d, 0)) {
		raw := core.RawBase(d, 1)
		if int(h.Load64(raw+8)) == len(name) && h.EqualString(raw+16, name) {
			w := h.Load64(raw)
			return byte(w & tagMask), pmem.Addr(w &^ tagMask)
		}
	}
	return 0, pmem.NilAddr
}

// dirLink prepends a dirent binding name to desc with tag. The dirent's
// payload is write-once raw data; the only logged store is the root-chain
// update, so a crash before the epoch commits rolls the binding (and the
// structure it points to) back as one unit. Callers hold dirMu.
func (s *RespctStore) dirLink(th int, name string, tag byte, desc pmem.Addr) {
	t := s.rt.Thread(th)
	nameWords := (len(name) + 7) / 8
	d := s.rt.Arena().Alloc(t, 1, 2+nameWords)
	if d == pmem.NilAddr {
		panic("kv: out of persistent memory")
	}
	t.Init(core.Cell(d, 0), uint64(s.rt.ReadAddr(s.dirRootCell())))
	raw := core.RawBase(d, 1)
	h := s.rt.Heap()
	h.Store64(raw, uint64(desc)|uint64(tag))
	h.Store64(raw+8, uint64(len(name)))
	h.StoreString(raw+16, name)
	t.AddModifiedRange(raw, 16+nameWords*8)
	t.Update(s.dirRootCell(), uint64(d))
}

// dirWalk visits every directory binding (newest first).
func (s *RespctStore) dirWalk(fn func(name string, tag byte, desc pmem.Addr)) {
	h := s.rt.Heap()
	for d := s.rt.ReadAddr(s.dirRootCell()); d != pmem.NilAddr; d = s.rt.ReadAddr(core.Cell(d, 0)) {
		raw := core.RawBase(d, 1)
		w := h.Load64(raw)
		name := string(h.LoadBytes(raw+16, int(h.Load64(raw+8))))
		fn(name, byte(w&tagMask), pmem.Addr(w&^tagMask))
	}
}

// getQueue resolves (and with create, makes) the named queue.
func (s *RespctStore) getQueue(th int, name string, create bool) (*structures.RespctQueue, error) {
	s.dirMu.Lock()
	defer s.dirMu.Unlock()
	if h, ok := s.handles[name]; ok {
		if h.tag != tagQueue {
			return nil, ErrWrongType
		}
		return h.q, nil
	}
	tag, desc := s.dirFind(name)
	if desc != pmem.NilAddr {
		if tag != tagQueue {
			return nil, ErrWrongType
		}
		q := structures.OpenRespctQueueAt(s.rt, desc)
		s.handles[name] = &namedHandle{tag: tagQueue, q: q}
		return q, nil
	}
	if !create {
		return nil, nil
	}
	q, err := structures.NewRespctQueueAt(s.rt, th)
	if err != nil {
		return nil, err
	}
	s.dirLink(th, name, tagQueue, q.Desc())
	s.handles[name] = &namedHandle{tag: tagQueue, q: q}
	return q, nil
}

// getLog resolves (and with create, makes) the named log.
func (s *RespctStore) getLog(th int, name string, create bool) (*structures.RespctLog, error) {
	s.dirMu.Lock()
	defer s.dirMu.Unlock()
	if h, ok := s.handles[name]; ok {
		if h.tag != tagLog {
			return nil, ErrWrongType
		}
		return h.l, nil
	}
	tag, desc := s.dirFind(name)
	if desc != pmem.NilAddr {
		if tag != tagLog {
			return nil, ErrWrongType
		}
		l := structures.OpenRespctLogAt(s.rt, desc)
		s.handles[name] = &namedHandle{tag: tagLog, l: l}
		return l, nil
	}
	if !create {
		return nil, nil
	}
	l, err := structures.NewRespctLogAt(s.rt, th)
	if err != nil {
		return nil, err
	}
	s.dirLink(th, name, tagLog, l.Desc())
	s.handles[name] = &namedHandle{tag: tagLog, l: l}
	return l, nil
}

// --- queue byte payloads ---

// Queues store uint64 elements; byte values ride in write-once blob blocks
// whose address is what gets enqueued: [len, bytes...] raw words, freed on
// pop. The blob is never mutated, so pushes log only the queue's pointer
// updates.
func (s *RespctStore) newBlob(th int, b []byte) pmem.Addr {
	t := s.rt.Thread(th)
	a := s.rt.Arena().AllocRaw(t, 1+(len(b)+7)/8)
	if a == pmem.NilAddr {
		panic("kv: out of persistent memory")
	}
	raw := core.RawBase(a, 0)
	h := s.rt.Heap()
	h.Store64(raw, uint64(len(b)))
	h.StoreBytes(raw+8, b)
	t.AddModifiedRange(raw, 8+(len(b)+7)/8*8)
	return a
}

func (s *RespctStore) blobBytes(a pmem.Addr) []byte {
	raw := core.RawBase(a, 0)
	return s.rt.Heap().LoadBytes(raw+8, int(s.rt.Heap().Load64(raw)))
}

// QPush implements StructOps.
func (s *RespctStore) QPush(th int, name string, value []byte) error {
	if s.ord == nil {
		return ErrStructuresDisabled
	}
	q, err := s.getQueue(th, name, true)
	if err != nil {
		return err
	}
	q.Enqueue(th, uint64(s.newBlob(th, value)))
	return nil
}

// QPop implements StructOps.
func (s *RespctStore) QPop(th int, name string) ([]byte, bool, error) {
	if s.ord == nil {
		return nil, false, ErrStructuresDisabled
	}
	q, err := s.getQueue(th, name, false)
	if err != nil || q == nil {
		return nil, false, err
	}
	v, ok := q.Dequeue(th)
	if !ok {
		return nil, false, nil
	}
	blob := pmem.Addr(v)
	b := s.blobBytes(blob)
	s.rt.Arena().Free(s.rt.Thread(th), blob)
	return b, true, nil
}

// LAppend implements StructOps.
func (s *RespctStore) LAppend(th int, name string, record []byte) (uint64, error) {
	if s.ord == nil {
		return 0, ErrStructuresDisabled
	}
	l, err := s.getLog(th, name, true)
	if err != nil {
		return 0, err
	}
	return l.Append(th, record), nil
}

// LRange implements StructOps.
func (s *RespctStore) LRange(th int, name string, from uint64, count uint32) ([][]byte, error) {
	if s.ord == nil {
		return nil, ErrStructuresDisabled
	}
	l, err := s.getLog(th, name, false)
	if err != nil || l == nil {
		return nil, err
	}
	var out [][]byte
	l.Range(from, uint64(count), func(_ uint64, record []byte) bool {
		out = append(out, record)
		return true
	})
	return out, nil
}

// snapshotStructures extends a logical snapshot with the structure state
// (see SnapshotLogical). No-op on a plain store.
func (s *RespctStore) snapshotStructures(out map[string]string) {
	if s.ord == nil {
		return
	}
	// The empty ordered index is omitted (not encoded as an empty entry) so
	// a fresh structures store snapshots identically to a fresh plain one —
	// soak baselines captured before any checkpoint certifies compare
	// against the empty map.
	if keys, _ := s.ord.Snapshot(); len(keys) > 0 {
		out["\x00ord"] = strings.Join(keys, "\x1f")
	}
	s.dirWalk(func(name string, tag byte, desc pmem.Addr) {
		switch tag {
		case tagQueue:
			q := structures.OpenRespctQueueAt(s.rt, desc)
			items := q.Snapshot()
			parts := make([]string, len(items))
			for i, v := range items {
				parts[i] = string(s.blobBytes(pmem.Addr(v)))
			}
			out["\x00q:"+name] = strings.Join(parts, "\x1f")
		case tagLog:
			l := structures.OpenRespctLogAt(s.rt, desc)
			var parts []string
			l.ForEach(func(_ uint64, record []byte) bool {
				parts = append(parts, string(record))
				return true
			})
			out["\x00l:"+name] = strings.Join(parts, "\x1f")
		}
	})
}

// CheckIndexes verifies that the two indexes agree — what SnapshotLogical's
// key-only "\x00ord" digest cannot see: every ordered node's value is the
// hash index's record for the node's key, every such record's handle names
// that node, and the two indexes hold the same number of keys. Callers
// ensure quiescence; a plain store has nothing to check.
func (s *RespctStore) CheckIndexes() error {
	if s.ord == nil {
		return nil
	}
	keys, vals := s.ord.Snapshot()
	for i, key := range keys {
		rec, _, _ := s.find(0, FNV1a(key), key)
		if rec == pmem.NilAddr || uint64(rec) != vals[i] {
			return fmt.Errorf("kv: ordered node %q points at %#x, hash index holds %#x", key, vals[i], uint64(rec))
		}
		node := s.recNode(rec)
		if k, v := s.ord.At(node); k != key || v != vals[i] {
			return fmt.Errorf("kv: record %#x of %q carries handle %#x naming key %q value %#x", uint64(rec), key, uint64(node), k, v)
		}
	}
	if n := s.Count(); n != len(keys) {
		return fmt.Errorf("kv: hash index holds %d keys, ordered index %d", n, len(keys))
	}
	return nil
}

var _ StructOps = (*RespctStore)(nil)
