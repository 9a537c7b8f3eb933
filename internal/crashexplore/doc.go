// Package crashexplore systematically explores crash points of a
// deterministic workload and checks that recovery lands on a completed
// checkpoint after every one of them — buffered durable linearizability,
// mechanically verified.
//
// The pipeline has three stages:
//
//  1. Record. The workload — a row pairing an internal/crash subject with a
//     crash.Script — runs once with a pmem.Recorder attached to its heaps.
//     Every ordering-relevant persistence event — line write-back (with its
//     cause), fence, epoch commit, collision-log append — is logged with a
//     stable sequence number. Workloads are written so this trace is
//     byte-for-byte reproducible: one driving goroutine, serial flushers, no
//     background evictor, fixed RNG seeds.
//
//  2. Explore. Each trace position whose write-back changed the persistent
//     image is a candidate crash point (events that cannot change the image
//     are skipped up front). The workload is re-executed once per candidate
//     with the recorder scripted to crash every heap immediately after that
//     event, so the persistent image holds exactly the prefix of the
//     reference schedule. Re-executions whose persistent image hashes to
//     one already explored are deduplicated — recovery is a pure function
//     of the image. Above a budget, points are sampled with priority given
//     to the neighbourhoods of semantic annotations (epoch commits,
//     collision-log traffic), where ordering bugs live.
//
//  3. Check. After each crash the workload's heaps are recovered and the
//     recovered logical state is compared against the model snapshot
//     certified at checkpoint boundary failedEpoch-1 — the last completed
//     checkpoint before the crash — by the same crash.Checker every chaos
//     soak uses. Any divergence (or recovery error) is a
//     durability-contract violation; the earliest failing point is written
//     out as a minimized, replayable repro that `respct-crash -replay` and
//     Replay consume.
//
// What the explorer covers and — just as important — what it does not is
// documented in docs/FAILURE-MODEL.md.
package crashexplore
