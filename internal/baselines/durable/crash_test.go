package durable

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/respct/respct/internal/baselines/cow"
	"github.com/respct/respct/internal/baselines/dali"
	"github.com/respct/respct/internal/baselines/friedman"
	"github.com/respct/respct/internal/baselines/shadow"
	"github.com/respct/respct/internal/baselines/soft"
	"github.com/respct/respct/internal/pmem"
	"github.com/respct/respct/internal/structures"
)

// This file is the crash table of every comparator structure: the durable
// package's four policies over its map and queue, and the Dalí, COW,
// shadow, SOFT and Friedman structures, each recovered into a fresh object
// by its Open.

// An op is one scripted step: insert (k, v) or remove k on a map, enqueue v
// or dequeue on a queue, or a checkpoint, which a durable structure has no
// use for.
type op struct {
	kind byte // 'i', 'r', 'e', 'd', 'c'
	k, v uint64
}

// model is the sequential specification every structure is checked against.
type model struct {
	kv map[uint64]uint64
	q  []uint64
}

func (m *model) do(o op) {
	switch o.kind {
	case 'i':
		m.kv[o.k] = o.v
	case 'r':
		delete(m.kv, o.k)
	case 'e':
		m.q = append(m.q, o.v)
	case 'd':
		if len(m.q) > 0 {
			m.q = m.q[1:]
		}
	}
}

func (m model) clone() model {
	c := model{kv: map[uint64]uint64{}, q: append([]uint64(nil), m.q...)}
	for k, v := range m.kv {
		c.kv[k] = v
	}
	return c
}

func (m *model) state(isMap bool) string {
	if isMap {
		return fmt.Sprint(m.kv)
	}
	return fmt.Sprint(m.q)
}

// subject is a structure under test. Its state read is bounded, so a cycle
// fails the test instead of hanging it.
type subject interface {
	do(o op)
	state() (string, error)
}

const walkBound = 64

var errCycle = errors.New("chain longer than any script builds: a cycle")

// mapSubject and queueSubject read a durable structure's state by walking
// its words: a bucket chain in one bucket, the queue from head to tail.
type mapSubject struct{ *Map }

func (m mapSubject) do(o op) {
	switch o.kind {
	case 'i':
		m.Insert(0, o.k, o.v)
	case 'r':
		m.Remove(0, o.k)
	}
}

func (m mapSubject) state() (string, error) {
	kv := map[uint64]uint64{}
	for n, steps := pmem.Addr(m.h.Load64(m.buckets)), 0; n != pmem.NilAddr; n, steps = pmem.Addr(m.h.Load64(n)), steps+1 {
		k := m.h.Load64(n + 2*m.stride)
		if _, dup := kv[k]; dup || steps == walkBound {
			return "", errCycle
		}
		kv[k] = m.h.Load64(n + m.stride)
	}
	return fmt.Sprint(kv), nil
}

type queueSubject struct{ *Queue }

func (q queueSubject) do(o op) {
	switch o.kind {
	case 'e':
		q.Enqueue(0, o.v)
	case 'd':
		q.Dequeue(0)
	}
}

func (q queueSubject) state() (string, error) {
	var vs []uint64
	last := pmem.NilAddr
	for n := pmem.Addr(q.h.Load64(q.desc)); n != pmem.NilAddr; n = pmem.Addr(q.h.Load64(n)) {
		if len(vs) == walkBound {
			return "", errCycle
		}
		vs, last = append(vs, q.h.Load64(n+q.stride)), n
	}
	if tail := pmem.Addr(q.h.Load64(q.desc + q.stride)); tail != last {
		return "", fmt.Errorf("tail %#x, last node %#x", tail, last)
	}
	return fmt.Sprint(vs), nil
}

// checkpoint runs x's Checkpoint if it has one.
func checkpoint(x any) {
	if c, ok := x.(interface{ Checkpoint() }); ok {
		c.Checkpoint()
	}
}

// keys holds every key the map scripts use; mapAPI reads a map's state as
// their lookups.
var keys = []uint64{1, 2, 3, 4, 5, 9, 100, 101}

// mapAPI and queueAPI drive the other comparators through their exported
// operations. A queue's state is read by draining it and enqueueing the
// values back, which leaves the same sequence.
type mapAPI struct{ structures.Map }

func (m mapAPI) do(o op) {
	switch o.kind {
	case 'i':
		m.Insert(0, o.k, o.v)
	case 'r':
		m.Remove(0, o.k)
	case 'c':
		checkpoint(m.Map)
	}
}

func (m mapAPI) state() (string, error) {
	kv := map[uint64]uint64{}
	for _, k := range keys {
		if v, ok := m.Get(0, k); ok {
			kv[k] = v
		}
	}
	return fmt.Sprint(kv), nil
}

type queueAPI struct{ structures.Queue }

func (q queueAPI) do(o op) {
	switch o.kind {
	case 'e':
		q.Enqueue(0, o.v)
	case 'd':
		q.Dequeue(0)
	case 'c':
		checkpoint(q.Queue)
	}
}

func (q queueAPI) state() (string, error) {
	var vs []uint64
	for v, ok := q.Dequeue(0); ok; v, ok = q.Dequeue(0) {
		if len(vs) == walkBound {
			return "", errCycle
		}
		vs = append(vs, v)
	}
	for _, v := range vs {
		q.Enqueue(0, v)
	}
	return fmt.Sprint(vs), nil
}

// A shape is the scripts a kind of structure runs: the script whose every
// crash point is tried, the script run whole before a crash, and the two
// ops committed after each recovery. The checkpoints are steps of the
// scripts; a durable structure skips them. The map's ops after recovery
// remove a key that may have been overwritten before the crash, and two
// checkpoints then reclaim its last put: a superseded put recovery kept
// would come back.
type shape struct {
	isMap              bool
	script, free, more []op
}

var (
	// One bucket, so every op collides: four inserts, an overwrite, a
	// remove, an insert that reuses the freed node, a missing remove. The
	// whole-script run ends with a remove, so a free list holds its node
	// at the crash.
	mapShape = shape{
		isMap:  true,
		script: []op{{'i', 1, 10}, {'i', 2, 20}, {'c', 0, 0}, {'i', 3, 30}, {'i', 4, 40}, {'i', 2, 21}, {'c', 0, 0}, {'r', 3, 0}, {'i', 5, 50}, {'r', 9, 0}, {'c', 0, 0}},
		free:   []op{{'i', 1, 10}, {'i', 2, 20}, {'i', 3, 30}, {'i', 4, 40}, {'i', 5, 50}, {'r', 3, 0}, {'c', 0, 0}},
		more:   []op{{'i', 100, 1}, {'r', 2, 0}, {'c', 0, 0}, {'c', 0, 0}},
	}
	// Three enqueues, two dequeues, two enqueues that reuse their nodes,
	// then dequeues until one finds the queue empty.
	queueShape = shape{
		script: []op{{'e', 0, 1}, {'e', 0, 2}, {'e', 0, 3}, {'c', 0, 0}, {'d', 0, 0}, {'d', 0, 0}, {'e', 0, 4}, {'c', 0, 0}, {'e', 0, 5}, {'d', 0, 0}, {'d', 0, 0}, {'c', 0, 0}, {'d', 0, 0}, {'d', 0, 0}, {'c', 0, 0}},
		free:   []op{{'e', 0, 1}, {'e', 0, 2}, {'e', 0, 3}, {'e', 0, 4}, {'d', 0, 0}, {'c', 0, 0}},
		more:   []op{{'e', 0, 100}, {'e', 0, 101}, {'c', 0, 0}},
	}
	// The buffered rows go on past the last checkpoint with an op that
	// reuses a block a checkpoint reclaimed, then checkpoint again: a
	// block rewritten in the failed epoch must not count once a later
	// checkpoint completes.
	bufferedMapShape   = extend(mapShape, op{'i', 3, 31}, op{'c', 0, 0})
	bufferedQueueShape = extend(queueShape, op{'e', 0, 6}, op{'c', 0, 0})
)

func extend(sh shape, steps ...op) shape {
	sh.script = append(slices.Clip(sh.script), steps...)
	return sh
}

// A row is one structure. build formats it on a fresh heap, or with open
// rebuilds it from the heap's image into a fresh object. A buffered row
// loses what its last completed checkpoint does not cover; a durable row
// loses at most the torn op.
type row struct {
	name     string
	buffered bool
	shape    shape
	build    func(h *pmem.Heap, open bool) subject
}

// shadowWords is two 512-word pages; the structures fit in the first.
const shadowWords = 1024

// shadowMap and shadowQueue pair a shadow structure with the heap whose
// Checkpoint it needs.
type shadowMap struct {
	*shadow.Map
	*shadow.Heap
}

type shadowQueue struct {
	*shadow.Queue
	*shadow.Heap
}

func rows() []row {
	var rs []row
	for _, pol := range []struct {
		name string
		p    Policy
	}{{"UndoLog", UndoLog}, {"Clobber", Clobber}, {"RedoLog", RedoLog}, {"InCLL", InCLL}} {
		rs = append(rs, row{pol.name + "/map", false, mapShape, func(h *pmem.Heap, open bool) subject {
			if open {
				return mapSubject{OpenMap(h, 1, 1, pol.p)}
			}
			return mapSubject{NewMap(h, 1, 1, pol.p)}
		}}, row{pol.name + "/queue", false, queueShape, func(h *pmem.Heap, open bool) subject {
			if open {
				return queueSubject{OpenQueue(h, 1, pol.p)}
			}
			return queueSubject{NewQueue(h, 1, pol.p)}
		}})
	}
	return append(rs,
		row{"Dali/map", true, bufferedMapShape, func(h *pmem.Heap, open bool) subject {
			if open {
				return mapAPI{dali.OpenMap(h, 1, 1)}
			}
			return mapAPI{dali.NewMap(h, 1, 1)}
		}},
		row{"COW/map", true, bufferedMapShape, func(h *pmem.Heap, open bool) subject {
			if open {
				return mapAPI{cow.OpenMap(h, 1)}
			}
			return mapAPI{cow.NewMap(h, 1)}
		}},
		row{"COW/queue", true, bufferedQueueShape, func(h *pmem.Heap, open bool) subject {
			if open {
				return queueAPI{cow.OpenQueue(h)}
			}
			return queueAPI{cow.NewQueue(h)}
		}},
		row{"Shadow/map", true, bufferedMapShape, func(h *pmem.Heap, open bool) subject {
			if open {
				sh := shadow.OpenHeap(h, shadowWords)
				return mapAPI{shadowMap{shadow.OpenMap(sh, 1), sh}}
			}
			sh := shadow.NewHeap(h, shadowWords)
			return mapAPI{shadowMap{shadow.NewMap(sh, 1), sh}}
		}},
		row{"Shadow/queue", true, bufferedQueueShape, func(h *pmem.Heap, open bool) subject {
			if open {
				sh := shadow.OpenHeap(h, shadowWords)
				return queueAPI{shadowQueue{shadow.OpenQueue(sh), sh}}
			}
			sh := shadow.NewHeap(h, shadowWords)
			return queueAPI{shadowQueue{shadow.NewQueue(sh), sh}}
		}},
		row{"SOFT/map", false, mapShape, func(h *pmem.Heap, open bool) subject {
			if open {
				return mapAPI{soft.OpenMap(h, 1, 1)}
			}
			return mapAPI{soft.NewMap(h, 1, 1)}
		}},
		row{"Friedman/queue", false, queueShape, func(h *pmem.Heap, open bool) subject {
			if open {
				return queueAPI{friedman.OpenQueue(h, 1, 0)}
			}
			return queueAPI{friedman.NewQueue(h, 1, 0)}
		}},
	)
}

func newHeap() *pmem.Heap { return pmem.New(pmem.Config{Size: 1 << 18}) }

// afterCrash opens a fresh object on h, requires a state in want, then
// commits more, each checked, crashes with nothing evicted and requires
// their effects from another fresh object. It returns the index in want
// that the recovered state matched; where names the crash in failures.
func afterCrash(t *testing.T, where string, h *pmem.Heap, r row, want []model) int {
	t.Helper()
	isMap := r.shape.isMap
	s := r.build(h, true)
	got, err := s.state()
	hit := -1
	for i := range want {
		if err == nil && got == want[i].state(isMap) {
			hit = i
		}
	}
	if hit < 0 {
		t.Errorf("%s: recovered %q (%v), want one of %q", where, got, err, states(want, isMap))
		return hit
	}
	m := want[hit].clone()
	for _, o := range r.shape.more {
		s.do(o)
		m.do(o)
		if got, err := s.state(); err != nil || got != m.state(isMap) {
			t.Errorf("%s: after recovery, op %c %d %d leaves %q (%v), want %q", where, o.kind, o.k, o.v, got, err, m.state(isMap))
			return hit
		}
	}
	h.Crash()
	if got, err := r.build(h, true).state(); err != nil || got != m.state(isMap) {
		t.Errorf("%s: second crash recovered %q (%v), want %q", where, got, err, m.state(isMap))
	}
	return hit
}

func states(ms []model, isMap bool) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.state(isMap))
	}
	return out
}

// prefix runs the first n steps of script on s, if s is not nil, and
// returns the model after each of them, the empty model first.
func prefix(s subject, script []op, n int) []model {
	ms := []model{{kv: map[uint64]uint64{}}}
	for _, o := range script[:n] {
		if s != nil {
			s.do(o)
		}
		m := ms[len(ms)-1].clone()
		m.do(o)
		ms = append(ms, m)
	}
	return ms
}

// outcomes returns the states a crash inside step i of script may recover:
// the committed one, and the one the step makes visible if it completes.
// A durable structure commits each op as it returns; a buffered one at
// each checkpoint, so a crash inside an op recovers the last completed
// checkpoint and one inside a checkpoint may also recover that one.
func outcomes(r row, models []model, i int) (committed, visible model) {
	if !r.buffered {
		return models[i], models[i+1]
	}
	last := 0
	for j, o := range r.shape.script[:i] {
		if o.kind == 'c' {
			last = j + 1
		}
	}
	if r.shape.script[i].kind == 'c' {
		return models[last], models[i]
	}
	return models[last], models[last]
}

// TestDurableCrashAtEveryPoint crashes every step of each row's script at
// every persistence event it emits, once as is and once with every dirty
// line evicted first. Recovery into a fresh object must yield a state the
// row's consistency allows (see outcomes), and the shape's ops committed
// after it must survive a second crash. Both outcomes must occur
// in every row. Each row's -free-list subtest runs the shape's free script
// whole and crashes with no step torn: a free list kept across the crash
// would hand out a live node, making a map chain a cycle or draining a
// queue short.
func TestDurableCrashAtEveryPoint(t *testing.T) {
	for _, r := range rows() {
		sh := r.shape
		t.Run(r.name, func(t *testing.T) {
			h, rec := newHeap(), pmem.NewRecorder()
			rec.Attach(h)
			s := r.build(h, false)
			ends := []int{rec.Len()}
			for _, o := range sh.script {
				s.do(o)
				ends = append(ends, rec.Len())
			}
			models := prefix(nil, sh.script, len(sh.script))
			var seen [2]int
			for i, o := range sh.script {
				committed, visible := outcomes(r, models, i)
				for seq := ends[i]; seq < ends[i+1]; seq++ {
					for _, evict := range []bool{false, true} {
						h, rec := newHeap(), pmem.NewRecorder()
						rec.Attach(h)
						s := r.build(h, false)
						prefix(s, sh.script, i)
						if evict {
							rec.Script([]pmem.Action{{AfterSeq: uint64(seq), Line: -1}})
						}
						rec.CrashAllAt(uint64(seq))
						s.do(o)
						where := fmt.Sprintf("step %d (%c %d %d), event %d, evict %v", i, o.kind, o.k, o.v, seq, evict)
						if hit := afterCrash(t, where, h, r, []model{committed, visible}); hit >= 0 && committed.state(sh.isMap) != visible.state(sh.isMap) {
							seen[hit]++
						}
					}
				}
			}
			t.Logf("%d crash points: %d torn steps rolled back, %d survived", 2*(ends[len(ends)-1]-ends[0]), seen[0], seen[1])
			if seen[0] == 0 || seen[1] == 0 {
				t.Errorf("torn steps rolled back %d times, survived %d: both outcomes must occur", seen[0], seen[1])
			}
		})
		t.Run(r.name+"-free-list", func(t *testing.T) {
			h := newHeap()
			ms := prefix(r.build(h, false), sh.free, len(sh.free))
			h.Crash()
			afterCrash(t, "after the script", h, r, ms[len(ms)-1:])
		})
	}
}
