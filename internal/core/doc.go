//respct:exportdoc

// Package core implements ResPCT (EuroSys 2022): checkpoint-based fault
// tolerance for multi-threaded programs on non-volatile main memory, built
// on In-Cache-Line Logging (InCLL) and programmer-positioned Restart Points.
//
// # Model
//
// Execution is divided into epochs. During an epoch the program updates
// persistent variables through InCLL (Update), which places the undo log of
// a variable — its previous value and the epoch of its first modification —
// in the same cache line as the variable itself. The PCSO property of the
// simulated hardware (package pmem) guarantees the log can never reach NVMM
// after the value it protects, without any flush or fence on the critical
// path. The epoch tag doubles as the modification tracker: the first update
// of a variable in an epoch appends its address to the updating thread's
// to-be-flushed list.
//
// A checkpoint ends an epoch: it waits until every worker thread is parked
// at a Restart Point (Thread.RP), flushes every tracked cache line through
// the flush engine (flush.go: the lines partitioned by heap range, up to one
// flusher per P), increments and persists the global epoch counter, and
// releases the threads. A parked thread blocks until that release instead of
// polling for it, so the flushers have the CPUs. If the machine crashes, Recover rolls back every
// InCLL variable modified during the crashed epoch to its logged value,
// which restores exactly the state of the last completed checkpoint —
// buffered durable linearizability.
//
// # Programming rules (paper §2.1 and §3.3)
//
//   - Programs must be race free: a thread updating a shared persistent
//     variable must hold the lock protecting it. Atomic read-modify-write
//     on managed data is not supported.
//   - Restart points may not be placed inside critical sections, and every
//     thread must reach one eventually.
//   - A persistent variable whose first access after an RP is a read, and
//     which is written later (a WAR dependency), needs InCLL. Persistent
//     variables that are only written before being read (RAW) may use plain
//     stores plus Thread.AddModified for tracking.
//   - Waits on condition variables must be wrapped in CheckpointAllow /
//     CheckpointPrevent, with an RP immediately before the critical section.
//
// # API correspondence with the paper (Table 1)
//
//	InCLL_data<T>            -> InCLL (plus typed views)
//	init_InCLL(l, val)       -> Thread.Init
//	update_InCLL(l, val)     -> Thread.Update
//	add_modified(addr)       -> Thread.AddModified
//	RP(id)                   -> Thread.RP
//	checkpoint_allow()       -> Thread.CheckpointAllow
//	checkpoint_prevent(m)    -> Thread.CheckpointPrevent
//	checkpoint()             -> Runtime.Checkpoint (driven by Checkpointer)
//	recovery()               -> Recover
package core
