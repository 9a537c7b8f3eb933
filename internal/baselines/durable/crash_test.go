package durable

import (
	"errors"
	"fmt"
	"testing"

	"github.com/respct/respct/internal/pmem"
)

// An op is one scripted operation: insert (k, v) or remove k on a map,
// enqueue v or dequeue on a queue.
type op struct {
	kind byte // 'i', 'r', 'e', 'd'
	k, v uint64
}

// model is the sequential specification both structures are checked against.
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

// subject is a structure under test. Its state walk is bounded, so a cycle
// fails the test instead of hanging it.
type subject interface {
	do(o op)
	Recover() int
	state() (string, error)
}

const walkBound = 64

var errCycle = errors.New("chain longer than any script builds: a cycle")

type mapSubject struct{ *Map }

func (m mapSubject) do(o op) {
	if o.kind == 'i' {
		m.Insert(0, o.k, o.v)
	} else {
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
	if o.kind == 'e' {
		q.Enqueue(0, o.v)
	} else {
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

var policies = []struct {
	name string
	p    Policy
}{{"UndoLog", UndoLog}, {"Clobber", Clobber}, {"RedoLog", RedoLog}, {"InCLL", InCLL}}

// A shape is a structure, the script whose every crash point is tried, and
// the two committed ops that follow the recovery.
type shape struct {
	name   string
	isMap  bool
	open   func(h *pmem.Heap, p Policy) subject
	script []op
	more   []op
}

var shapes = []shape{
	{
		// One bucket, so every op collides: four inserts, an overwrite, a
		// remove, an insert that reuses the freed node, a missing remove.
		name: "map", isMap: true,
		open:   func(h *pmem.Heap, p Policy) subject { return mapSubject{NewMap(h, 1, 1, p)} },
		script: []op{{'i', 1, 10}, {'i', 2, 20}, {'i', 3, 30}, {'i', 4, 40}, {'i', 2, 21}, {'r', 3, 0}, {'i', 5, 50}, {'r', 9, 0}},
		more:   []op{{'i', 100, 1}, {'i', 101, 2}},
	},
	{
		// Three enqueues, two dequeues, two enqueues that reuse their
		// nodes, then dequeues until one finds the queue empty.
		name:   "queue",
		open:   func(h *pmem.Heap, p Policy) subject { return queueSubject{NewQueue(h, 1, p)} },
		script: []op{{'e', 0, 1}, {'e', 0, 2}, {'e', 0, 3}, {'d', 0, 0}, {'d', 0, 0}, {'e', 0, 4}, {'e', 0, 5}, {'d', 0, 0}, {'d', 0, 0}, {'d', 0, 0}, {'d', 0, 0}},
		more:   []op{{'e', 0, 100}, {'e', 0, 101}},
	},
}

func newHeap() *pmem.Heap { return pmem.New(pmem.Config{Size: 1 << 18}) }

// afterCrash recovers s, requires a state in want, then commits more, each
// checked, crashes with nothing evicted and requires their effects too. It
// returns the index in want that the recovered state matched; where names
// the crash in failures.
func afterCrash(t *testing.T, where string, h *pmem.Heap, s subject, sh shape, want []model) int {
	t.Helper()
	s.Recover()
	got, err := s.state()
	hit := -1
	for i := range want {
		if err == nil && got == want[i].state(sh.isMap) {
			hit = i
		}
	}
	if hit < 0 {
		t.Errorf("%s: recovered %q (%v), want one of %q", where, got, err, states(want, sh.isMap))
		return hit
	}
	m := want[hit].clone()
	for _, o := range sh.more {
		s.do(o)
		m.do(o)
		if got, err := s.state(); err != nil || got != m.state(sh.isMap) {
			t.Errorf("%s: after recovery, op %c %d %d leaves %q (%v), want %q", where, o.kind, o.k, o.v, got, err, m.state(sh.isMap))
			return hit
		}
	}
	h.Crash()
	s.Recover()
	if got, err := s.state(); err != nil || got != m.state(sh.isMap) {
		t.Errorf("%s: second crash recovered %q (%v), want %q", where, got, err, m.state(sh.isMap))
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

// prefix runs the first n ops of the script on s and returns the model
// after each of them, the empty model first.
func prefix(s subject, sh shape, n int) []model {
	ms := []model{{kv: map[uint64]uint64{}}}
	for _, o := range sh.script[:n] {
		if s != nil {
			s.do(o)
		}
		m := ms[len(ms)-1].clone()
		m.do(o)
		ms = append(ms, m)
	}
	return ms
}

// TestDurableCrashAtEveryPoint crashes every op of each script at every
// persistence event it emits, once as is and once with every dirty line
// evicted first, under every policy. Recovery must yield the state before
// or after the torn op, and two ops committed after it must survive a
// second crash. Both outcomes must occur for each policy and structure.
func TestDurableCrashAtEveryPoint(t *testing.T) {
	for _, pol := range policies {
		for _, sh := range shapes {
			t.Run(pol.name+"/"+sh.name, func(t *testing.T) {
				h, r := newHeap(), pmem.NewRecorder()
				r.Attach(h)
				s := sh.open(h, pol.p)
				ends := []int{r.Len()}
				for _, o := range sh.script {
					s.do(o)
					ends = append(ends, r.Len())
				}
				models := prefix(nil, sh, len(sh.script))
				var outcomes [2]int
				for i := range sh.script {
					for seq := ends[i]; seq < ends[i+1]; seq++ {
						for _, evict := range []bool{false, true} {
							h, r := newHeap(), pmem.NewRecorder()
							r.Attach(h)
							s := sh.open(h, pol.p)
							prefix(s, sh, i)
							if evict {
								r.Script([]pmem.Action{{AfterSeq: uint64(seq), Line: -1}})
							}
							r.CrashAllAt(uint64(seq))
							s.do(sh.script[i])
							o, before, after := sh.script[i], models[i], models[i+1]
							where := fmt.Sprintf("op %d (%c %d %d), event %d, evict %v", i, o.kind, o.k, o.v, seq, evict)
							if hit := afterCrash(t, where, h, s, sh, []model{before, after}); hit >= 0 && before.state(sh.isMap) != after.state(sh.isMap) {
								outcomes[hit]++
							}
						}
					}
				}
				t.Logf("%d crash points: %d torn ops rolled back, %d survived", 2*(ends[len(ends)-1]-ends[0]), outcomes[0], outcomes[1])
				if outcomes[0] == 0 || outcomes[1] == 0 {
					t.Errorf("torn ops rolled back %d times, survived %d: both outcomes must occur", outcomes[0], outcomes[1])
				}
			})
		}
		// A crash right after a committed remove or dequeue, then two pops
		// of the free list. One kept across Recover hands out a live node:
		// the map's chain became a cycle, the queue drained as [101].
		for _, sh := range freeListRows {
			t.Run(pol.name+"/"+sh.name+"-free-list", func(t *testing.T) {
				h := newHeap()
				s := sh.open(h, pol.p)
				ms := prefix(s, sh, len(sh.script))
				h.Crash()
				afterCrash(t, "after the script", h, s, sh, ms[len(ms)-1:])
			})
		}
	}
}

var freeListRows = func() []shape {
	rows := append([]shape(nil), shapes...)
	rows[0].script = []op{{'i', 1, 10}, {'i', 2, 20}, {'i', 3, 30}, {'i', 4, 40}, {'i', 5, 50}, {'r', 3, 0}}
	rows[1].script = []op{{'e', 0, 1}, {'e', 0, 2}, {'e', 0, 3}, {'e', 0, 4}, {'d', 0, 0}}
	return rows
}()
