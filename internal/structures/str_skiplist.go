package structures

import (
	"fmt"
	"sync"

	"github.com/respct/respct/internal/core"
	"github.com/respct/respct/internal/pmem"
)

// strHash is FNV-1a over the key bytes; the string skiplist derives its
// deterministic tower heights from it (see skipLevel).
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// RespctStrSkipList is a persistent ordered map from string keys to 8-byte
// values — the string-keyed sibling of RespctSkipList that backs the server's
// SCAN command (keys in lexicographic byte order). The programming model is
// identical: a single mutex serialises every operation, forward pointers and
// values are InCLL cells whose updates are individually undo-logged, and key
// bytes are write-once RAW data, so a crashed epoch rolls a whole insertion
// or removal back atomically and no partial-link state can survive recovery.
//
// Handles. A node's address never changes while its key is present, so the
// address Insert returns is a handle to the key: valid from that Insert until
// the key's Remove (and across recovery, as long as the epoch that inserted
// it was certified), it lets SetAt overwrite the value without the walk. The
// list does not check a handle; the caller keeps it with whatever owns the
// key, drops it on Remove, and serialises SetAt against Insert/Remove of the
// same key (the list's mutex orders it against everything else).
//
// Node payload: cells [value, next_0 .. next_{skipMaxLevel-1}] (the full
// tower is always reserved so offsets are fixed), raw words
// [keyLen<<32|level, key bytes...].
type RespctStrSkipList struct {
	rt   *core.Runtime
	desc pmem.Addr // head tower: skipMaxLevel next cells
	mu   sync.Mutex
}

// NewRespctStrSkipList creates an empty persistent ordered map published
// under heap root slot rootIdx.
func NewRespctStrSkipList(rt *core.Runtime, rootIdx int) (*RespctStrSkipList, error) {
	sys := rt.Sys()
	desc := rt.Arena().AllocCells(sys, skipMaxLevel)
	if desc == pmem.NilAddr {
		return nil, fmt.Errorf("structures: heap exhausted allocating skiplist head")
	}
	for i := 0; i < skipMaxLevel; i++ {
		sys.Init(core.Cell(desc, i), 0)
	}
	sys.Update(rt.RootInCLL(rootIdx), uint64(desc))
	return &RespctStrSkipList{rt: rt, desc: desc}, nil
}

// OpenRespctStrSkipList reattaches to an ordered map published under rootIdx
// after recovery.
func OpenRespctStrSkipList(rt *core.Runtime, rootIdx int) (*RespctStrSkipList, error) {
	desc := rt.ReadAddr(rt.RootInCLL(rootIdx))
	if desc == pmem.NilAddr {
		return nil, fmt.Errorf("structures: no skiplist registered under root %d", rootIdx)
	}
	return &RespctStrSkipList{rt: rt, desc: desc}, nil
}

func (s *RespctStrSkipList) nodeValue(n pmem.Addr) core.InCLL { return core.Cell(n, 0) }

func (s *RespctStrSkipList) nodeMeta(n pmem.Addr) (keyLen, lvl int) {
	w := s.rt.Heap().Load64(core.RawBase(n, skipMaxLevel+1))
	return int(w >> 32), int(w & 0xFFFFFFFF)
}

// nodeKey materialises n's key (allocates; scans and snapshots only — probes
// compare in place with cmpKey).
func (s *RespctStrSkipList) nodeKey(n pmem.Addr) string {
	raw := core.RawBase(n, skipMaxLevel+1)
	kl := int(s.rt.Heap().Load64(raw) >> 32)
	return string(s.rt.Heap().LoadBytes(raw+8, kl))
}

// cmpKey lexicographically compares n's key bytes against key without
// materialising them, reading one packed word per 8 bytes (StoreString packs
// little-endian, so byte j of a word is (w >> 8j) & 0xFF).
func (s *RespctStrSkipList) cmpKey(n pmem.Addr, key string) int {
	raw := core.RawBase(n, skipMaxLevel+1)
	h := s.rt.Heap()
	kl := int(h.Load64(raw) >> 32)
	base := raw + 8
	m := kl
	if len(key) < m {
		m = len(key)
	}
	for i := 0; i < m; {
		w := h.Load64(base + pmem.Addr(i/8*8))
		stop := m - i
		if stop > 8 {
			stop = 8
		}
		for j := 0; j < stop; j++ {
			b := byte(w >> (8 * j))
			if b != key[i+j] {
				if b < key[i+j] {
					return -1
				}
				return 1
			}
		}
		i += stop
	}
	switch {
	case kl < len(key):
		return -1
	case kl > len(key):
		return 1
	}
	return 0
}

func (s *RespctStrSkipList) next(n pmem.Addr, lvl int) pmem.Addr {
	if n == s.desc {
		return s.rt.ReadAddr(core.Cell(s.desc, lvl))
	}
	return s.rt.ReadAddr(core.Cell(n, 1+lvl))
}

func (s *RespctStrSkipList) nextCell(n pmem.Addr, lvl int) core.InCLL {
	if n == s.desc {
		return core.Cell(s.desc, lvl)
	}
	return core.Cell(n, 1+lvl)
}

// locate fills preds with the rightmost node ordered strictly before key at
// each level and returns the level-0 successor candidate with whether it
// holds key — the one walk behind every keyed operation. Callers hold s.mu.
func (s *RespctStrSkipList) locate(key string, preds *[skipMaxLevel]pmem.Addr) (cand pmem.Addr, found bool) {
	cur := s.desc
	for lvl := skipMaxLevel - 1; lvl >= 0; lvl-- {
		for {
			nxt := s.next(cur, lvl)
			if nxt == pmem.NilAddr || s.cmpKey(nxt, key) >= 0 {
				break
			}
			cur = nxt
		}
		preds[lvl] = cur
	}
	cand = s.next(cur, 0)
	return cand, cand != pmem.NilAddr && s.cmpKey(cand, key) == 0
}

// Insert adds or overwrites key, returning key's node (its handle, see the
// type comment) and whether the key was absent. Both cases pay the full
// O(log n) walk under the mutex: an overwrite is that walk plus one logged
// cell update — a caller that kept the handle uses SetAt and skips the walk —
// and an insertion allocates the node, writes the key bytes once, and links
// bottom-up with logged pointer swings.
func (s *RespctStrSkipList) Insert(th int, key string, value uint64) (node pmem.Addr, fresh bool) {
	t := s.rt.Thread(th)
	s.mu.Lock()
	defer s.mu.Unlock()
	var preds [skipMaxLevel]pmem.Addr
	if cand, found := s.locate(key, &preds); found {
		t.Update(s.nodeValue(cand), value)
		return cand, false
	}
	lvl := skipLevel(strHash(key))
	keyWords := (len(key) + 7) / 8
	n := s.rt.Arena().Alloc(t, skipMaxLevel+1, 1+keyWords)
	if n == pmem.NilAddr {
		panic("structures: RespctStrSkipList out of persistent memory")
	}
	t.Init(s.nodeValue(n), value)
	raw := core.RawBase(n, skipMaxLevel+1)
	h := s.rt.Heap()
	h.Store64(raw, uint64(len(key))<<32|uint64(lvl))
	h.StoreString(raw+8, key)
	t.AddModifiedRange(raw, 8+keyWords*8)
	for i := 0; i < lvl; i++ {
		t.Init(core.Cell(n, 1+i), uint64(s.next(preds[i], i)))
	}
	for i := 0; i < lvl; i++ {
		t.UpdateAddr(s.nextCell(preds[i], i), n)
	}
	return n, true
}

// SetAt overwrites the value of the key whose handle is node: one logged
// cell update under a momentary hold of the mutex, no walk.
func (s *RespctStrSkipList) SetAt(th int, node pmem.Addr, value uint64) {
	s.mu.Lock()
	s.rt.Thread(th).Update(s.nodeValue(node), value)
	s.mu.Unlock()
}

// At returns the key and value of the node a handle names.
func (s *RespctStrSkipList) At(node pmem.Addr) (key string, value uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodeKey(node), s.rt.Read(s.nodeValue(node))
}

// Remove deletes key and reports whether it was present.
func (s *RespctStrSkipList) Remove(th int, key string) bool {
	t := s.rt.Thread(th)
	s.mu.Lock()
	defer s.mu.Unlock()
	var preds [skipMaxLevel]pmem.Addr
	cand, found := s.locate(key, &preds)
	if !found {
		return false
	}
	_, lvl := s.nodeMeta(cand)
	for i := 0; i < lvl; i++ {
		if s.next(preds[i], i) == cand {
			t.Update(s.nextCell(preds[i], i), uint64(s.next(cand, i)))
		}
	}
	s.rt.Arena().Free(t, cand)
	return true
}

// Get returns the value stored under key.
func (s *RespctStrSkipList) Get(th int, key string) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var preds [skipMaxLevel]pmem.Addr
	cand, found := s.locate(key, &preds)
	if !found {
		return 0, false
	}
	return s.rt.Read(s.nodeValue(cand)), true
}

// Scan calls fn for each pair with from <= key (and key <= to when to is
// non-empty; an empty to means unbounded) in ascending lexicographic order
// until fn returns false. The skiplist's mutex is held for the whole scan,
// so fn observes an atomic cut of the index and any addresses it reads
// through values cannot be freed mid-scan by concurrent writers that
// maintain this index before freeing.
func (s *RespctStrSkipList) Scan(th int, from, to string, fn func(key string, value uint64) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var preds [skipMaxLevel]pmem.Addr
	for n, _ := s.locate(from, &preds); n != pmem.NilAddr; n = s.next(n, 0) {
		if to != "" && s.cmpKey(n, to) > 0 {
			return
		}
		if !fn(s.nodeKey(n), s.rt.Read(s.nodeValue(n))) {
			return
		}
	}
}

// PerOp places the per-operation restart point.
func (s *RespctStrSkipList) PerOp(th int) { s.rt.Thread(th).RP(rpSkipOp) }

// ThreadExit marks worker th finished so checkpoints no longer wait for it.
func (s *RespctStrSkipList) ThreadExit(th int) { s.rt.Thread(th).CheckpointAllow() }

// Close releases every runtime thread slot (idempotent CheckpointAllow per
// thread, consistent with ThreadExit), so a checkpoint can never stall on a
// closed structure's former workers.
func (s *RespctStrSkipList) Close() {
	for i := 0; i < s.rt.Threads(); i++ {
		s.rt.Thread(i).CheckpointAllow()
	}
}

// Snapshot returns the contents in ascending key order (test helper).
func (s *RespctStrSkipList) Snapshot() ([]string, []uint64) {
	var keys []string
	var vals []uint64
	s.Scan(0, "", "", func(k string, v uint64) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	})
	return keys, vals
}
