package kv

// GatedStore is a RespctStore behind the gating rule of DESIGN.md §3f (the
// paper's §3.3.3 blocking-call rule applied per operation): a thread's
// checkpoint-allow window is open whenever it is between operations, and
// every operation runs CheckpointPrevent → store call → restart point →
// CheckpointAllow. An atomic batch (Batch) is the one unit wider than an
// operation. The bare RespctStore takes no windows at all — it is for
// drivers that hold one themselves; everything that serves requests
// (kv.Server, ApplyFrame, shard.Store per shard) goes through a GatedStore.
type GatedStore struct{ s *RespctStore }

// Gate puts s behind the gating rule, taking over the windows of every
// thread of s's runtime: each is opened here and from then on closed only
// for the duration of an operation on that thread.
func Gate(s *RespctStore) *GatedStore {
	for i := 0; i < s.rt.Threads(); i++ {
		s.rt.Thread(i).CheckpointAllow()
	}
	return &GatedStore{s}
}

// window runs f — one operation — inside th's prevent window, placing its
// restart point before the window reopens.
func (g *GatedStore) window(th int, f func()) {
	t := g.s.rt.Thread(th)
	t.CheckpointPrevent(nil)
	f()
	g.s.PerOp(th)
	t.CheckpointAllow()
}

// Set implements Store.
func (g *GatedStore) Set(th int, key string, value []byte) {
	g.window(th, func() { g.s.Set(th, key, value) })
}

// Get implements Store.
func (g *GatedStore) Get(th int, key string) (v []byte, ok bool) {
	g.window(th, func() { v, ok = g.s.Get(th, key) })
	return v, ok
}

// Delete implements Store.
func (g *GatedStore) Delete(th int, key string) (ok bool) {
	g.window(th, func() { ok = g.s.Delete(th, key) })
	return ok
}

// PerOp implements Store. Restart points are placed inside every operation,
// while its window is held, so this is a no-op.
func (g *GatedStore) PerOp(int) {}

// ThreadExit implements Store: th's window is left open.
func (g *GatedStore) ThreadExit(th int) { g.s.ThreadExit(th) }

// Structures reports whether the store carries the multi-model surface.
func (g *GatedStore) Structures() bool { return g.s.Structures() }

// Scan implements StructOps.
func (g *GatedStore) Scan(th int, from, to string, limit int) (out []Entry) {
	g.window(th, func() { out = g.s.Scan(th, from, to, limit) })
	return out
}

// QPush implements StructOps.
func (g *GatedStore) QPush(th int, name string, value []byte) (err error) {
	g.window(th, func() { err = g.s.QPush(th, name, value) })
	return err
}

// QPop implements StructOps.
func (g *GatedStore) QPop(th int, name string) (v []byte, ok bool, err error) {
	g.window(th, func() { v, ok, err = g.s.QPop(th, name) })
	return v, ok, err
}

// LAppend implements StructOps.
func (g *GatedStore) LAppend(th int, name string, record []byte) (idx uint64, err error) {
	g.window(th, func() { idx, err = g.s.LAppend(th, name, record) })
	return idx, err
}

// LRange implements StructOps.
func (g *GatedStore) LRange(th int, name string, from uint64, count uint32) (recs [][]byte, err error) {
	g.window(th, func() { recs, err = g.s.LRange(th, name, from, count) })
	return recs, err
}

// Expire implements StructOps.
func (g *GatedStore) Expire(th int, key string, ms uint64) (ok bool) {
	g.window(th, func() { ok = g.s.Expire(th, key, ms) })
	return ok
}

// TTL implements StructOps.
func (g *GatedStore) TTL(th int, key string) (ms uint64, ok bool) {
	g.window(th, func() { ms, ok = g.s.TTL(th, key) })
	return ms, ok
}

// SweepExpired runs the bare store's expiry sweep as one gated operation on
// th (the shard checkpointer's dedicated sweeper thread).
func (g *GatedStore) SweepExpired(th int, now uint64) (n int) {
	g.window(th, func() { n = g.s.SweepExpired(th, now) })
	return n
}

// BatchShard implements Batcher: a single store is its own only shard.
func (g *GatedStore) BatchShard(string) int { return 0 }

// Batch implements Batcher: f runs against the bare store inside one window
// on th, so everything it does lands in a single epoch — a crash keeps it
// all or rolls it all back. f places the restart points (RespctStore.PerOp
// between sub-operations bounds the undo cells held at once).
func (g *GatedStore) Batch(th, _ int, f func(st *RespctStore)) {
	t := g.s.rt.Thread(th)
	t.CheckpointPrevent(nil)
	f(g.s)
	t.CheckpointAllow()
}

var (
	_ Store     = (*GatedStore)(nil)
	_ StructOps = (*GatedStore)(nil)
	_ Batcher   = (*GatedStore)(nil)
)
