package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// Checkpointer is the one periodic checkpoint driver, the paper's timer: a
// goroutine that waits one interval, runs one tick, and re-arms its timer
// once the tick returns. The effective period is therefore the interval
// plus the tick's pause, and longer still when a checkpoint waits for
// threads to reach restart points (§5.2 measures this gap). A runtime's
// driver ticks Runtime.Checkpoint; a shard pool's tick checkpoints one
// shard; comparators and crash soaks tick their own checkpoints.
//
// A nil *Checkpointer is a driver that never ticks; its methods all work.
type Checkpointer struct {
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	periods  atomic.Int64 // completed periods
	totalNs  atomic.Int64 // sum of completion-to-completion gaps
	maxPause atomic.Int64 // longest tick's CheckpointInfo.Total, ns; written by the driver alone
}

// StartCheckpointer runs tick every interval until Stop; the returned
// CheckpointInfo's Total is the pause MaxPause tracks. A non-positive
// interval starts nothing and returns nil.
func StartCheckpointer(interval time.Duration, tick func() CheckpointInfo) *Checkpointer {
	if interval <= 0 {
		return nil
	}
	c := &Checkpointer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		last := time.Now()
		timer := time.NewTimer(interval)
		defer timer.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-timer.C:
			}
			pause := int64(tick().Total)
			now := time.Now()
			c.periods.Add(1)
			c.totalNs.Add(int64(now.Sub(last)))
			last = now
			if pause > c.maxPause.Load() {
				c.maxPause.Store(pause)
			}
			timer.Reset(interval)
		}
	}()
	return c
}

// StartCheckpointer begins taking a checkpoint of rt every interval. Workers
// must reach restart points (or allow windows) for each checkpoint to
// complete; a worker goroutine that exits must call Thread.CheckpointAllow
// first or the checkpointer will stall waiting for it.
func (rt *Runtime) StartCheckpointer(interval time.Duration) *Checkpointer {
	return StartCheckpointer(interval, rt.Checkpoint)
}

// Stop halts the driver and waits for any in-flight tick. It may be called
// more than once.
func (c *Checkpointer) Stop() {
	if c == nil {
		return
	}
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// MaxPause returns the longest pause of any tick since the driver started.
func (c *Checkpointer) MaxPause() time.Duration {
	if c == nil {
		return 0
	}
	return time.Duration(c.maxPause.Load())
}

// EffectivePeriod returns the measured average completion-to-completion
// period, or zero if no period completed yet.
func (c *Checkpointer) EffectivePeriod() time.Duration {
	if c == nil {
		return 0
	}
	n := c.periods.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(c.totalNs.Load() / n)
}
