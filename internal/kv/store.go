// Package kv implements the Memcached-like key-value store of the paper's
// §5.3: a hash table of key-value objects kept in NVMM, exposed over a
// memcached-style TCP text protocol, with the "asynchronous writes"
// consistency the paper evaluates — a SET returns as soon as the update is
// applied in memory, and durability comes from the periodic checkpoint.
package kv

import (
	"strconv"
	"sync"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/structures"
)

// Store is the abstract KV interface the server and benchmarks drive. th is
// the worker index (one goroutine per index at a time).
type Store interface {
	Set(th int, key string, value []byte)
	Get(th int, key string) ([]byte, bool)
	Delete(th int, key string) bool
	PerOp(th int)
	ThreadExit(th int)
}

// FNV1a is the 64-bit FNV-1a hash of a key — the store's bucket hash and the
// input of shard.Route; 0 is avoided (reserved by the map layer).
func FNV1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	if h == 0 {
		return 1
	}
	return h
}

const kvStripes = 1024

// RespctStore is the persistent store: a RespctMap from key hash to a chain
// of record blocks. Records are write-once (key and value bytes are RAW
// data), and every mutation is a logged pointer update, so SETs never log
// value bytes — the ResPCT idiom.
//
// Record block layout: recCells InCLL cells, raw words:
// [keyLen|valLen, key bytes..., value bytes...]. Cell 0 is the chain next
// pointer. A plain store's records have exactly 1 cell; a Structures-mode
// store (see StoreOptions) adds cell 1 holding the record's expiry deadline
// in clock milliseconds (0 = no expiry) and, in that cell's spare word, the
// write-once handle to the key's ordered-index node — plus the ordered
// index, the named structure directory and the volatile state declared in
// struct.go.
type RespctStore struct {
	rt       *core.Runtime
	index    *structures.RespctMap
	locks    [kvStripes]sync.Mutex
	recCells int

	// Structures mode (nil/zero on a plain store; see struct.go).
	ord     *structures.RespctStrSkipList
	dirRoot int
	clock   func() uint64
	expMu   sync.Mutex
	exp     map[string]uint64
	dirMu   sync.Mutex
	handles map[string]*namedHandle
}

// NewRespctStore creates a plain store whose index lives under rootIdx.
func NewRespctStore(rt *core.Runtime, rootIdx, buckets int) (*RespctStore, error) {
	return NewRespctStoreOpts(rt, rootIdx, StoreOptions{Buckets: buckets})
}

// OpenRespctStore reattaches a plain store after recovery.
func OpenRespctStore(rt *core.Runtime, rootIdx int) (*RespctStore, error) {
	return OpenRespctStoreOpts(rt, rootIdx, StoreOptions{})
}

func recWords(keyLen, valLen int) int {
	return 1 + (keyLen+7)/8 + (valLen+7)/8
}

func (s *RespctStore) newRecord(th int, next pmem.Addr, key string, value []byte) pmem.Addr {
	t := s.rt.Thread(th)
	rec := s.rt.Arena().Alloc(t, s.recCells, recWords(len(key), len(value)))
	if rec == pmem.NilAddr {
		panic("kv: out of persistent memory")
	}
	t.Init(core.Cell(rec, 0), uint64(next))
	if s.recCells == recCellsStruct {
		t.Init(core.Cell(rec, 1), 0) // fresh records carry no expiry
	}
	raw := core.RawBase(rec, s.recCells)
	h := s.rt.Heap()
	h.Store64(raw, uint64(len(key))<<32|uint64(len(value)))
	keyBase := raw + 8
	h.StoreString(keyBase, key)
	valBase := keyBase + pmem.Addr((len(key)+7)/8*8)
	h.StoreBytes(valBase, value)
	t.AddModifiedRange(raw, 8+(len(key)+7)/8*8+(len(value)+7)/8*8)
	return rec
}

func (s *RespctStore) recNext(rec pmem.Addr) core.InCLL { return core.Cell(rec, 0) }

func (s *RespctStore) recKey(rec pmem.Addr) string {
	raw := core.RawBase(rec, s.recCells)
	kl := int(s.rt.Heap().Load64(raw) >> 32)
	return string(s.rt.Heap().LoadBytes(raw+8, kl))
}

// keyIs reports whether rec's key equals key without materialising it — the
// per-probe comparison of every chain walk, kept allocation-free.
func (s *RespctStore) keyIs(rec pmem.Addr, key string) bool {
	raw := core.RawBase(rec, s.recCells)
	h := s.rt.Heap()
	if int(h.Load64(raw)>>32) != len(key) {
		return false
	}
	return h.EqualString(raw+8, key)
}

func (s *RespctStore) recValue(rec pmem.Addr) []byte {
	raw := core.RawBase(rec, s.recCells)
	lens := s.rt.Heap().Load64(raw)
	kl, vl := int(lens>>32), int(lens&0xFFFFFFFF)
	valBase := raw + 8 + pmem.Addr((kl+7)/8*8)
	return s.rt.Heap().LoadBytes(valBase, vl)
}

// find walks key's same-hash chain; callers hold the key's stripe lock. It
// returns key's record (NilAddr when absent, expired or not) with the cell
// that points at it (the nil InCLL when that is the index slot itself), and
// the chain head (NilAddr for an empty slot).
func (s *RespctStore) find(th int, hash uint64, key string) (rec pmem.Addr, prev core.InCLL, head pmem.Addr) {
	h, _ := s.index.Get(th, hash)
	head = pmem.Addr(h)
	for rec = head; rec != pmem.NilAddr; rec = s.rt.ReadAddr(s.recNext(rec)) {
		if s.keyIs(rec, key) {
			break
		}
		prev = s.recNext(rec)
	}
	return rec, prev, head
}

// unlink removes key's record rec (found behind prev) from its chain, the
// ordered index and the expiry map, then frees it.
func (s *RespctStore) unlink(th int, hash uint64, key string, rec pmem.Addr, prev core.InCLL) {
	t := s.rt.Thread(th)
	next := s.rt.ReadAddr(s.recNext(rec))
	switch {
	case !prev.IsNil():
		t.UpdateAddr(prev, next)
	case next == pmem.NilAddr:
		s.index.Remove(th, hash)
	default:
		s.index.Insert(th, hash, uint64(next))
	}
	s.ordDrop(th, key, rec)
	s.rt.Arena().Free(t, rec)
}

// Set implements Store: records are immutable, so an update allocates the
// new record and swings one logged pointer; a new key (or a hash collision
// with a different key) is prepended to the chain. A SET discards any
// previous TTL (the fresh record's expiry cell is zero). The ordered index
// is repointed at the new record BEFORE the old one is freed, so a
// concurrent Scan (which holds the ordered index's lock for its whole walk)
// can never read a freed record through a stale index value. Only a new key
// walks the ordered index; an overwrite reaches its node through the handle
// the outgoing record carries (see ordPut).
func (s *RespctStore) Set(th int, key string, value []byte) {
	hash := FNV1a(key)
	mu := &s.locks[hash%kvStripes]
	mu.Lock()
	defer mu.Unlock()
	t := s.rt.Thread(th)
	old, prev, next := s.find(th, hash, key)
	if old != pmem.NilAddr {
		next = s.rt.ReadAddr(s.recNext(old))
	}
	rec := s.newRecord(th, next, key, value)
	if old == pmem.NilAddr || prev.IsNil() {
		s.index.Insert(th, hash, uint64(rec))
	} else {
		t.UpdateAddr(prev, rec)
	}
	s.ordPut(th, key, old, rec)
	if old != pmem.NilAddr {
		s.rt.Arena().Free(t, old)
	}
}

// Get implements Store.
func (s *RespctStore) Get(th int, key string) ([]byte, bool) {
	hash := FNV1a(key)
	mu := &s.locks[hash%kvStripes]
	mu.Lock()
	defer mu.Unlock()
	rec, _, _ := s.find(th, hash, key)
	if rec == pmem.NilAddr || s.recExpired(rec) {
		return nil, false // absent, or dead but not yet swept: reads filter
	}
	return s.recValue(rec), true
}

// Delete implements Store. An expired-but-unswept record is removed
// physically but reported as a miss — logically the key was already gone.
func (s *RespctStore) Delete(th int, key string) bool {
	hash := FNV1a(key)
	mu := &s.locks[hash%kvStripes]
	mu.Lock()
	defer mu.Unlock()
	rec, prev, _ := s.find(th, hash, key)
	if rec == pmem.NilAddr {
		return false
	}
	live := !s.recExpired(rec)
	s.unlink(th, hash, key, rec, prev)
	return live
}

// PerOp places the per-request restart point.
func (s *RespctStore) PerOp(th int) { s.rt.Thread(th).RP(0x4b564f70) }

// ThreadExit implements Store.
func (s *RespctStore) ThreadExit(th int) { s.rt.Thread(th).CheckpointAllow() }

// Runtime returns the store's runtime (for checkpointer control).
func (s *RespctStore) Runtime() *core.Runtime { return s.rt }

// TransientStore is the unmodified-memcached stand-in: records in a
// simulated heap (DRAM- or NVMM-configured), volatile index, no fault
// tolerance.
type TransientStore struct {
	h      *pmem.Heap
	alloc  *pmem.Bump
	mu     [kvStripes]sync.Mutex
	shards [kvStripes]map[uint64]pmem.Addr // hash -> record
	free   [kvStripes]map[int][]pmem.Addr  // free lists keyed by capacity in lines
}

// NewTransientStore creates a transient store on h.
func NewTransientStore(h *pmem.Heap) *TransientStore {
	s := &TransientStore{h: h, alloc: pmem.NewBumpAll(h)}
	for i := range s.shards {
		s.shards[i] = make(map[uint64]pmem.Addr)
		s.free[i] = make(map[int][]pmem.Addr)
	}
	return s
}

// record: [keyLen|valLen, key..., val...]; collisions resolved by open
// addressing over the 64-bit hash (second slot = hash+1, vanishingly rare).
//
//respct:allow rawstore — transient store: records have no fault tolerance and are rebuilt, never recovered
func (s *TransientStore) write(rec pmem.Addr, key string, value []byte) {
	s.h.Store64(rec, uint64(len(key))<<32|uint64(len(value)))
	s.h.StoreBytes(rec+8, []byte(key))
	s.h.StoreBytes(rec+8+pmem.Addr((len(key)+7)/8*8), value)
}

func (s *TransientStore) readKey(rec pmem.Addr) string {
	kl := int(s.h.Load64(rec) >> 32)
	return string(s.h.LoadBytes(rec+8, kl))
}

func (s *TransientStore) readValue(rec pmem.Addr) []byte {
	lens := s.h.Load64(rec)
	kl, vl := int(lens>>32), int(lens&0xFFFFFFFF)
	return s.h.LoadBytes(rec+8+pmem.Addr((kl+7)/8*8), vl)
}

// Set implements Store.
func (s *TransientStore) Set(_ int, key string, value []byte) {
	hash := FNV1a(key)
	st := hash % kvStripes
	s.mu[st].Lock()
	defer s.mu[st].Unlock()
	slot := hash
	for {
		rec, ok := s.shards[st][slot]
		if !ok {
			bytes := 8 * recWords(len(key), len(value))
			lines := (bytes + pmem.LineSize - 1) / pmem.LineSize
			var n pmem.Addr
			if fl := s.free[st][lines]; len(fl) > 0 {
				n = fl[len(fl)-1]
				s.free[st][lines] = fl[:len(fl)-1]
			} else {
				n = s.alloc.Alloc(bytes)
				if n == pmem.NilAddr {
					panic("kv: transient store out of memory")
				}
			}
			s.write(n, key, value)
			s.shards[st][slot] = n
			return
		}
		if s.readKey(rec) == key {
			// In-place overwrite is only safe within the record's capacity;
			// benchmark keys/values are fixed-size, but handle growth.
			lens := s.h.Load64(rec)
			oldCap := recWords(int(lens>>32), int(lens&0xFFFFFFFF))
			if recWords(len(key), len(value)) <= oldCap {
				s.write(rec, key, value)
				return
			}
			oldLines := (8*oldCap + pmem.LineSize - 1) / pmem.LineSize
			s.free[st][oldLines] = append(s.free[st][oldLines], rec)
			bytes := 8 * recWords(len(key), len(value))
			n := s.alloc.Alloc(bytes)
			if n == pmem.NilAddr {
				panic("kv: transient store out of memory")
			}
			s.write(n, key, value)
			s.shards[st][slot] = n
			return
		}
		slot++ // different key, same hash: probe
	}
}

// Get implements Store.
func (s *TransientStore) Get(_ int, key string) ([]byte, bool) {
	hash := FNV1a(key)
	st := hash % kvStripes
	s.mu[st].Lock()
	defer s.mu[st].Unlock()
	slot := hash
	for {
		rec, ok := s.shards[st][slot]
		if !ok {
			return nil, false
		}
		if s.readKey(rec) == key {
			return s.readValue(rec), true
		}
		slot++
	}
}

// Delete implements Store.
func (s *TransientStore) Delete(_ int, key string) bool {
	hash := FNV1a(key)
	st := hash % kvStripes
	s.mu[st].Lock()
	defer s.mu[st].Unlock()
	slot := hash
	for {
		rec, ok := s.shards[st][slot]
		if !ok {
			return false
		}
		if s.readKey(rec) == key {
			delete(s.shards[st], slot)
			lens := s.h.Load64(rec)
			lines := (8*recWords(int(lens>>32), int(lens&0xFFFFFFFF)) + pmem.LineSize - 1) / pmem.LineSize
			s.free[st][lines] = append(s.free[st][lines], rec)
			return true
		}
		slot++
	}
}

// PerOp implements Store.
func (s *TransientStore) PerOp(int) {}

// ThreadExit implements Store.
func (s *TransientStore) ThreadExit(int) {}

// ensure interface compliance
var (
	_ Store = (*RespctStore)(nil)
	_ Store = (*TransientStore)(nil)
)

// Count returns the number of live keys in a RespctStore (test helper).
func (s *RespctStore) Count() int {
	n := 0
	snap := s.index.Snapshot()
	for _, head := range snap {
		for rec := pmem.Addr(head); rec != pmem.NilAddr; rec = s.rt.ReadAddr(s.recNext(rec)) {
			n++
		}
	}
	return n
}

// SnapshotLogical returns the store's full logical contents. Callers must
// ensure quiescence (crash checkers run it inside the checkpoint's quiesced
// hook). In Structures mode the snapshot also encodes the persistent
// structure state so crash checkers cover it: a key with a pending TTL maps
// to "value@deadline", and structure state appears under NUL-prefixed
// pseudo-keys ("\x00ord" for the ordered-index digest, "\x00q:name" and
// "\x00l:name" for queue and log contents) that can never collide with
// client keys, which the server rejects if they contain NUL.
func (s *RespctStore) SnapshotLogical() map[string]string {
	out := make(map[string]string)
	for _, head := range s.index.Snapshot() {
		for rec := pmem.Addr(head); rec != pmem.NilAddr; rec = s.rt.ReadAddr(s.recNext(rec)) {
			v := string(s.recValue(rec))
			if s.recCells == recCellsStruct {
				if d := s.rt.Read(core.Cell(rec, 1)); d != 0 {
					v += "@" + strconv.FormatUint(d, 10)
				}
			}
			out[s.recKey(rec)] = v
		}
	}
	s.snapshotStructures(out)
	return out
}
