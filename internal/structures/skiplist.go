package structures

import (
	"encoding/binary"
	"sync"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
)

// SortedMap is an ordered map of 8-byte keys to 8-byte values with range
// scans. Key 0 is reserved.
type SortedMap interface {
	// Insert adds or overwrites key and reports whether it was absent.
	Insert(th int, key, value uint64) bool
	// Remove deletes key and reports whether it was present.
	Remove(th int, key uint64) bool
	// Get returns the value stored under key.
	Get(th int, key uint64) (uint64, bool)
	// Scan calls fn for each pair with from <= key <= to in ascending key
	// order until fn returns false.
	Scan(th int, from, to uint64, fn func(key, value uint64) bool)
	// PerOp is called by drivers once per completed operation; persistent
	// flavours place their restart point here.
	PerOp(th int)
	// ThreadExit marks worker th as finished so checkpoints no longer
	// wait for it.
	ThreadExit(th int)
	// Close releases background machinery and runtime thread slots.
	Close()
}

const (
	skipMaxLevel = 16

	rpSkipOp uint64 = 0x536b69704f70 // "SkipOp"
)

// skipLevel derives a deterministic tower height from a key hash, so a
// structure's shape is reproducible across runs (expected height
// distribution ~ geometric(1/2)).
func skipLevel(key uint64) int {
	h := HashMix(key * 0x9E3779B97F4A7C15)
	lvl := 1
	for h&1 == 1 && lvl < skipMaxLevel {
		lvl++
		h >>= 1
	}
	return lvl
}

// RespctSkipList is the persistent sorted map over uint64 keys: a view of
// RespctStrSkipList whose keys are the 8 big-endian bytes of each uint64, so
// byte order is numeric order. The list is the server's ordered index; this
// view adds nothing but the key encoding, so every property of the list —
// one mutex, undo-logged links, whole insertions and removals rolled back
// with their epoch — holds here unchanged.
type RespctSkipList struct {
	l *RespctStrSkipList
}

// NewRespctSkipList creates an empty persistent sorted map published under
// heap root slot rootIdx.
func NewRespctSkipList(rt *core.Runtime, rootIdx int) (*RespctSkipList, error) {
	l, err := NewRespctStrSkipList(rt, rootIdx)
	if err != nil {
		return nil, err
	}
	return &RespctSkipList{l}, nil
}

// OpenRespctSkipList reattaches after recovery.
func OpenRespctSkipList(rt *core.Runtime, rootIdx int) (*RespctSkipList, error) {
	l, err := OpenRespctStrSkipList(rt, rootIdx)
	if err != nil {
		return nil, err
	}
	return &RespctSkipList{l}, nil
}

// u64Key encodes key as the list key that sorts where key does.
func u64Key(key uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], key)
	return string(b[:])
}

// Insert implements SortedMap.
func (s *RespctSkipList) Insert(th int, key, value uint64) bool {
	if key == 0 {
		panic("structures: skiplist key 0 is reserved")
	}
	_, fresh := s.l.Insert(th, u64Key(key), value)
	return fresh
}

// Remove implements SortedMap.
func (s *RespctSkipList) Remove(th int, key uint64) bool { return s.l.Remove(th, u64Key(key)) }

// Get implements SortedMap.
func (s *RespctSkipList) Get(th int, key uint64) (uint64, bool) { return s.l.Get(th, u64Key(key)) }

// Scan implements SortedMap. The list's bound is inclusive, and the largest
// key encodes as eight 0xFF bytes, never as the empty (unbounded) string.
func (s *RespctSkipList) Scan(th int, from, to uint64, fn func(key, value uint64) bool) {
	s.l.ScanNodes(th, u64Key(from), u64Key(to), func(n pmem.Addr, v uint64) bool {
		var b [8]byte
		return fn(binary.BigEndian.Uint64(s.l.AppendKey(b[:0], n)), v)
	})
}

// PerOp places the per-operation restart point.
func (s *RespctSkipList) PerOp(th int) { s.l.PerOp(th) }

// ThreadExit implements SortedMap.
func (s *RespctSkipList) ThreadExit(th int) { s.l.ThreadExit(th) }

// Close implements SortedMap. The persistent state stays intact —
// OpenRespctSkipList on the same root reattaches to it.
func (s *RespctSkipList) Close() { s.l.Close() }

// Snapshot returns the contents in ascending key order (test helper).
func (s *RespctSkipList) Snapshot() ([]uint64, []uint64) {
	var keys, vals []uint64
	s.Scan(0, 1, ^uint64(0), func(k, v uint64) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	})
	return keys, vals
}

// TransientSkipList is the skiplist algorithm without fault tolerance, on a
// simulated heap, with uint64 keys compared as words (the micro-benchmark
// baseline). Node layout (words): [value, next_0..next_15, key, level].
type TransientSkipList struct {
	noopSync
	h     *pmem.Heap
	alloc *pmem.Bump
	mu    sync.Mutex
	head  [skipMaxLevel]pmem.Addr // volatile head tower

	free pmem.Addr
}

const tskipWords = 1 + skipMaxLevel + 2

// NewTransientSkipList creates an empty transient sorted map on h.
func NewTransientSkipList(h *pmem.Heap) *TransientSkipList {
	return &TransientSkipList{h: h, alloc: pmem.NewBumpAll(h)}
}

func (s *TransientSkipList) next(n pmem.Addr, lvl int) pmem.Addr {
	if n == pmem.NilAddr {
		return s.head[lvl]
	}
	return pmem.Addr(s.h.Load64(n + pmem.Addr(8+lvl*8)))
}

//respct:allow rawstore — transient skiplist: no fault tolerance, region discarded on restart
func (s *TransientSkipList) setNext(n pmem.Addr, lvl int, v pmem.Addr) {
	if n == pmem.NilAddr {
		s.head[lvl] = v
		return
	}
	s.h.Store64(n+pmem.Addr(8+lvl*8), uint64(v))
}

func (s *TransientSkipList) key(n pmem.Addr) uint64 {
	return s.h.Load64(n + pmem.Addr(8*(1+skipMaxLevel)))
}

func (s *TransientSkipList) lvl(n pmem.Addr) int {
	return int(s.h.Load64(n + pmem.Addr(8*(2+skipMaxLevel))))
}

func (s *TransientSkipList) find(keyv uint64, preds *[skipMaxLevel]pmem.Addr) pmem.Addr {
	cur := pmem.NilAddr // nil stands for the head
	for lvl := skipMaxLevel - 1; lvl >= 0; lvl-- {
		for {
			nxt := s.next(cur, lvl)
			if nxt == pmem.NilAddr || s.key(nxt) >= keyv {
				break
			}
			cur = nxt
		}
		preds[lvl] = cur
	}
	return s.next(cur, 0)
}

// Insert implements SortedMap.
//
//respct:allow rawstore — transient skiplist: no fault tolerance, region discarded on restart
func (s *TransientSkipList) Insert(_ int, key, value uint64) bool {
	if key == 0 {
		panic("structures: skiplist key 0 is reserved")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var preds [skipMaxLevel]pmem.Addr
	cand := s.find(key, &preds)
	if cand != pmem.NilAddr && s.key(cand) == key {
		s.h.Store64(cand, value)
		return false
	}
	n := s.free
	if n != pmem.NilAddr {
		s.free = pmem.Addr(s.h.Load64(n))
	} else {
		n = s.alloc.Alloc(tskipWords * 8)
		if n == pmem.NilAddr {
			panic("structures: transient skiplist out of memory")
		}
	}
	lvl := skipLevel(key)
	s.h.Store64(n, value)
	s.h.Store64(n+pmem.Addr(8*(1+skipMaxLevel)), key)
	s.h.Store64(n+pmem.Addr(8*(2+skipMaxLevel)), uint64(lvl))
	for i := 0; i < lvl; i++ {
		s.setNext(n, i, s.next(preds[i], i))
	}
	for i := 0; i < lvl; i++ {
		s.setNext(preds[i], i, n)
	}
	return true
}

// Remove implements SortedMap.
//
//respct:allow rawstore — transient skiplist: no fault tolerance, region discarded on restart
func (s *TransientSkipList) Remove(_ int, key uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	var preds [skipMaxLevel]pmem.Addr
	cand := s.find(key, &preds)
	if cand == pmem.NilAddr || s.key(cand) != key {
		return false
	}
	for i := 0; i < s.lvl(cand); i++ {
		if s.next(preds[i], i) == cand {
			s.setNext(preds[i], i, s.next(cand, i))
		}
	}
	s.h.Store64(cand, uint64(s.free))
	s.free = cand
	return true
}

// Get implements SortedMap.
func (s *TransientSkipList) Get(_ int, key uint64) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var preds [skipMaxLevel]pmem.Addr
	cand := s.find(key, &preds)
	if cand != pmem.NilAddr && s.key(cand) == key {
		return s.h.Load64(cand), true
	}
	return 0, false
}

// Scan implements SortedMap.
func (s *TransientSkipList) Scan(_ int, from, to uint64, fn func(key, value uint64) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var preds [skipMaxLevel]pmem.Addr
	n := s.find(from, &preds)
	for n != pmem.NilAddr {
		k := s.key(n)
		if k > to {
			return
		}
		if !fn(k, s.h.Load64(n)) {
			return
		}
		n = s.next(n, 0)
	}
}
