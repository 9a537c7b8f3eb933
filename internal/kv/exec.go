package kv

import (
	"errors"

	"github.com/respct/respct/internal/wire"
)

// maxValueBytes bounds a single value. Oversized sets are refused, but their
// body is consumed so the connection stays in protocol sync.
const maxValueBytes = 1 << 20

// op is one decoded command, whichever codec read it. Its byte slices alias
// the codec's buffers (text MULTI sub-ops own copies): they are valid until
// the connection reads again, which it does only after the result is
// rendered.
type op struct {
	code  byte   // Command.Opcode: a wire.Op* code, or opMulti
	key   []byte // key, queue/log name, or scan start key
	value []byte // set/qpush/lappend payload
	to    []byte // scan end key (empty = unbounded)
	n64   uint64 // expire: TTL ms; lrange: start index
	n32   uint32 // scan: limit (0 = unbounded); lrange: count
	sub   []op   // opMulti: the batch's sub-commands
}

// result is one executed command's outcome, rendered by whichever codec read
// the op. status is a wire.Status* code or one of the two batch statuses.
type result struct {
	status  byte
	value   []byte   // StatusValue
	n64     uint64   // StatusAppended: index; StatusTTL: remaining ms
	entries []Entry  // StatusEntries from a scan
	records [][]byte // StatusEntries from an lrange
	sub     []result // statusBatch: one result per sub-command
}

// Batch statuses never reach the wire as such: the binary codec renders a
// batch that ran as its sub-results and one that did not as StatusRefused
// for every op.
const (
	// statusBatch is an atomic batch that executed; see result.sub.
	statusBatch = 0xF0
	// statusCrossShard refuses, whole, a batch whose keys span shards.
	statusCrossShard = 0xF1
)

// surface is a store as the executor sees it: the calls every Store has,
// plus the structure calls and the atomic-batch entry point when the store
// carries them switched on.
type surface struct {
	Store
	so      StructOps // nil: Command.Structures commands are refused
	batcher Batcher   // non-nil exactly when so is (nil inside a batch)
}

// structured is what a store must offer for the structure verbs and atomic
// batches: GatedStore and shard.Store do, the transient store does not.
type structured interface {
	StructOps
	Batcher
	Structures() bool
}

// surfaceOf resolves store's surface. A store that has the methods but was
// built with the surface switched off counts as not having it.
func surfaceOf(store Store) surface {
	sf := surface{Store: store}
	if m, ok := store.(structured); ok && m.Structures() {
		sf.so, sf.batcher = m, m
	}
	return sf
}

// refusal is the executor's admission rule, checked before any store call:
// a structure command on a store without the surface answers StatusRefused,
// a payload beyond maxValueBytes answers StatusTooLarge, anything else 0.
// The text codec applies it too, to a payload it will not buffer.
func (sf *surface) refusal(code byte, valueLen int) byte {
	switch {
	case byCode[code].Structures && sf.so == nil:
		return wire.StatusRefused
	case valueLen > maxValueBytes:
		return wire.StatusTooLarge
	}
	return 0
}

// found maps a hit/miss outcome to its status.
func found(ok bool, hit byte) byte {
	if ok {
		return hit
	}
	return wire.StatusNotFound
}

// structStatus maps a structure-op error to its status (ok for nil).
func structStatus(err error, ok byte) byte {
	switch {
	case err == nil:
		return ok
	case errors.Is(err, ErrWrongType):
		return wire.StatusWrongType
	}
	return wire.StatusRefused
}

// execute runs one command against the store under thread index th — the
// only place the command set meets the store, for both protocols, inside
// and outside atomic batches. Checkpoint gating is the store's business
// (see GatedStore): a plain op is one gated store call, a batch one Batch.
func (sf *surface) execute(th int, o *op, r *result) {
	*r = result{sub: r.sub[:0]}
	if r.status = sf.refusal(o.code, len(o.value)); r.status != 0 {
		return
	}
	key := bstr(o.key)
	switch o.code {
	case wire.OpGet:
		var ok bool
		r.value, ok = sf.Get(th, key)
		r.status = found(ok, wire.StatusValue)
	case wire.OpSet:
		sf.Set(th, key, o.value)
		r.status = wire.StatusStored
	case wire.OpDelete:
		r.status = found(sf.Delete(th, key), wire.StatusDeleted)
	case wire.OpScan:
		r.entries = sf.so.Scan(th, key, bstr(o.to), int(o.n32))
		r.status = wire.StatusEntries
	case wire.OpQPush:
		r.status = structStatus(sf.so.QPush(th, key, o.value), wire.StatusStored)
	case wire.OpQPop:
		v, ok, err := sf.so.QPop(th, key)
		if r.status = structStatus(err, wire.StatusEmpty); ok {
			r.value, r.status = v, wire.StatusValue
		}
	case wire.OpLAppend:
		var err error
		r.n64, err = sf.so.LAppend(th, key, o.value)
		r.status = structStatus(err, wire.StatusAppended)
	case wire.OpLRange:
		var err error
		r.records, err = sf.so.LRange(th, key, o.n64, o.n32)
		r.status = structStatus(err, wire.StatusEntries)
	case wire.OpExpire:
		r.status = found(sf.so.Expire(th, key, o.n64), wire.StatusStored)
	case wire.OpTTL:
		var ok bool
		r.n64, ok = sf.so.TTL(th, key)
		r.status = found(ok, wire.StatusTTL)
	case opMulti:
		sf.batch(th, o, r)
	}
}

// batch executes an atomic batch — a text MULTI or a FlagAtomic frame, the
// same loop: every sub-op must route to one shard (a scan, which spans
// shards, is not admitted), then all of them run on that shard's bare store
// under the single checkpoint-prevent window Batch holds, each followed by
// its restart point. A restart inside the batch replays only the interrupted
// sub-op, but the epoch the window pins makes the batch's persistence
// all-or-nothing. A batch that fails validation executes nothing.
func (sf *surface) batch(th int, o *op, r *result) {
	shard := -1
	for i := range o.sub {
		if o.sub[i].code == wire.OpScan {
			r.status = wire.StatusRefused
			return
		}
		si := sf.batcher.BatchShard(bstr(o.sub[i].key))
		if shard != -1 && si != shard {
			r.status = statusCrossShard
			return
		}
		shard = si
	}
	// The closure captures the sub-slices, not o and r: a pointer reaching
	// an interface call escapes, and o and r live on ApplyFrame's stack.
	subs, out := o.sub, r.sub
	sf.batcher.Batch(th, shard, func(st *RespctStore) {
		in := surface{Store: st, so: st}
		for i := range subs {
			out = append(out, result{})
			in.execute(th, &subs[i], &out[i])
			st.PerOp(th)
		}
	})
	r.status, r.sub = statusBatch, out
}

// ApplyFrame executes every operation of a decoded request frame against
// store under thread index th, appending one result per operation to resp
// in order (the response echoes the request's protocol version). It is the
// server's binary execution path, exported so the crash-consistency
// workloads and the benchmark ladder can drive the exact code the server
// runs. A non-nil error is a malformed operation; the frame's earlier
// operations have already executed (mirroring the text protocol, where a SET
// applies before its reply), and the caller must close the connection.
//
// Gating is the store's (DESIGN.md §3f): store must gate itself — a
// GatedStore, a shard.Store; a transient store has nothing to gate — and
// each operation of a plain frame is its own gated call, so a checkpoint may
// cut between two of them. A frame carrying wire.FlagAtomic is instead
// decoded whole (a malformed op fails it before anything runs) and executed
// as one atomic batch (see batch); when that refuses it — cross-shard keys,
// a scan, no structures surface — every op answers wire.StatusRefused and
// nothing executes.
func ApplyFrame(store Store, th int, f *wire.ReqFrame, resp *wire.RespBuilder) error {
	sf := surfaceOf(store)
	return sf.applyFrame(th, f, resp)
}

func (sf *surface) applyFrame(th int, f *wire.ReqFrame, resp *wire.RespBuilder) error {
	resp.SetVersion(f.Version())
	var o op
	var r result
	for left := f.Ops(); left > 0; {
		n, err := o.fromFrame(f, left)
		if err != nil {
			return err
		}
		left -= n
		sf.execute(th, &o, &r)
		r.toWire(&o, resp)
	}
	return nil
}

// fromFrame is the binary codec's request half: f's next command into o —
// one op of a plain frame, or all left ops of a FlagAtomic frame as one
// opMulti. It returns the number of wire ops consumed.
func (o *op) fromFrame(f *wire.ReqFrame, left int) (int, error) {
	if !f.Atomic() {
		w, err := f.Next()
		if err != nil {
			return 0, err
		}
		o.fromWire(w)
		return 1, nil
	}
	*o = op{code: opMulti, sub: make([]op, left)}
	for i := range o.sub {
		w, err := f.Next()
		if err != nil {
			return 0, err
		}
		o.sub[i].fromWire(w)
	}
	return left, nil
}

// fromWire fills o from one decoded wire op.
func (o *op) fromWire(w wire.Op) {
	*o = op{code: w.Code, key: w.Key}
	switch w.Code {
	case wire.OpScan:
		o.n32, o.to = w.ScanArgs()
	case wire.OpLRange:
		o.n64, o.n32 = w.LRangeArgs()
	case wire.OpExpire:
		o.n64 = w.ExpireArgs()
	default:
		o.value = w.Value
	}
}

// toWire is the binary codec's response half: o's result appended to resp.
// Entries responses (scan, lrange) are truncated at the wire.MaxValueLen
// blob budget.
func (r *result) toWire(o *op, resp *wire.RespBuilder) {
	switch r.status {
	case wire.StatusValue:
		resp.Value(r.value)
	case wire.StatusAppended:
		resp.Appended(r.n64)
	case wire.StatusTTL:
		resp.TTLms(r.n64)
	case wire.StatusEntries:
		mark := resp.BeginEntries()
		n := 0
		for _, e := range r.entries {
			if resp.EntriesLen(mark)+6+len(e.Key)+len(e.Value) > wire.MaxValueLen {
				break
			}
			resp.AddEntry(e.Key, e.Value)
			n++
		}
		for _, rec := range r.records {
			if resp.EntriesLen(mark)+6+len(rec) > wire.MaxValueLen {
				break
			}
			resp.AddEntry("", rec)
			n++
		}
		resp.EndEntries(mark, n)
	case statusBatch:
		for i := range r.sub {
			r.sub[i].toWire(&o.sub[i], resp)
		}
	default:
		if o.code != opMulti {
			resp.Status(r.status)
			return
		}
		for range o.sub {
			resp.Status(wire.StatusRefused)
		}
	}
}
