// Package shard partitions the key-value store across N independent ResPCT
// runtimes. Each shard owns a private pmem.Heap, core.Runtime,
// kv.RespctStore and checkpoint schedule, so a checkpoint only ever stalls
// the fraction of the key space that hashes to its shard. A deterministic
// FNV-1a router (decorrelated from the per-store bucket hash) assigns keys
// to shards, and shard.Store adapts the pool to the kv.Store interface, so
// kv.Server serves a sharded store unchanged.
//
// Checkpoints across the pool are phase-staggered: Start runs one
// core.Checkpointer, the repo's one periodic driver, whose tick checkpoints
// the next shard round-robin, so at most one shard is paused at any moment
// and each flush coalesces N ticks of updates — at the price of a per-shard
// recovery point up to N ticks old. A caller that wants the whole store's
// staleness bound at one interval leaves Interval zero and calls
// CheckpointAll itself, paying a global pause like an unsharded runtime.
//
// Durability is per shard: each shard snapshots to its own frame store
// (kv-<i>.fset, the format is internal/frame's alone) and recovers
// independently — recovery of all shards runs in
// parallel and is merged into one RecoveryReport. After a crash every shard
// rolls back to its own last completed checkpoint, so the recovered store is
// a per-shard-consistent prefix; internal/crash validates each shard's
// prefix independently against the snapshot certified at that shard's last
// checkpoint.
//
// Worker-thread protocol (the gating rule, DESIGN.md §3f): a pool worker
// keeps an allow window open on every shard and closes it only around an
// operation on the specific shard the key routes to — each shard's
// kv.GatedStore does it — so a shard can checkpoint while workers are busy
// on other shards, the property the staggered schedule exploits.
package shard
