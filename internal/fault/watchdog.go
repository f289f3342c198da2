package fault

import (
	"sync/atomic"
	"time"
)

// Watchdog detects stuck runs: every worker bumps a private padded
// heartbeat slot at its chunk boundaries (where it already pays a
// synchronization), and a single parked monitor goroutine samples the
// heartbeat sum while a run is armed. When the sum stays unchanged for
// a full stall budget — no worker anywhere claimed a chunk — the
// monitor trips the run's Flag with CauseStalled and the workers drain
// through the same cooperative abort path as a cancellation, leaving
// pooled state reusable.
//
// A Watchdog is built once and rearmed per run (Arm/Disarm), so pooled
// workspaces keep their zero-allocation steady state: Beat is one
// uncontended load+store, and Arm/Disarm exchange a value on a
// preallocated channel with the persistent monitor. A nil *Watchdog is
// valid and inert, so un-hardened callers pay only the nil check.
type Watchdog struct {
	slots []beatSlot
	trips atomic.Int64
	ctl   chan wdCtl
	ack   chan struct{}
}

// beatSlot is one worker's heartbeat, padded to its own cache line so
// beats never false-share (same layout discipline as the obs counter
// slots).
type beatSlot struct {
	n atomic.Int64
	_ [56]byte
}

// wdCtl is a monitor control message: arm with a flag and budget, or
// disarm (flag == nil) with a synchronous ack.
type wdCtl struct {
	flag   *Flag
	budget time.Duration
}

// NewWatchdog returns a watchdog for a team of `workers` virtual
// processors with its monitor goroutine parked. The caller must Close
// it when the owning workspace or run is done.
func NewWatchdog(workers int) *Watchdog {
	if workers < 1 {
		workers = 1
	}
	w := &Watchdog{
		slots: make([]beatSlot, workers),
		ctl:   make(chan wdCtl),
		ack:   make(chan struct{}, 1),
	}
	go w.monitor()
	return w
}

// Beat records progress for worker tid. Called at chunk boundaries
// only when the worker actually advanced (claimed or drained work), so
// a run where every worker spins idle still reads as stalled. The slot
// is single-writer; load+store avoids a contended RMW.
func (w *Watchdog) Beat(tid int) {
	if w == nil {
		return
	}
	s := &w.slots[tid].n
	s.Store(s.Load() + 1)
}

// Trips returns how many runs this watchdog has aborted.
func (w *Watchdog) Trips() int64 {
	if w == nil {
		return 0
	}
	return w.trips.Load()
}

// Arm starts monitoring a run: if the heartbeat sum stays unchanged
// for a full budget, f trips with CauseStalled. A budget <= 0 leaves
// the watchdog disarmed. The caller must Disarm before resetting f for
// the next run. Arm does not allocate.
func (w *Watchdog) Arm(f *Flag, budget time.Duration) {
	if w == nil || f == nil || budget <= 0 {
		return
	}
	w.ctl <- wdCtl{flag: f, budget: budget}
}

// Disarm stops monitoring. It is synchronous: once Disarm returns the
// monitor holds no flag reference and cannot trip late, so the caller
// may safely Reset the flag for the next run. Disarm when already
// disarmed is a harmless no-op; Disarm does not allocate.
func (w *Watchdog) Disarm() {
	if w == nil {
		return
	}
	w.ctl <- wdCtl{}
	<-w.ack
}

// Close releases the monitor goroutine. The watchdog must be disarmed
// and no Arm/Disarm may race Close; Beat stays safe (it only touches
// the slots).
func (w *Watchdog) Close() {
	if w == nil {
		return
	}
	close(w.ctl)
}

// sum folds the per-worker heartbeats; monotone because each slot only
// grows, so "sum unchanged" means "no worker advanced".
func (w *Watchdog) sum() int64 {
	var t int64
	for i := range w.slots {
		t += w.slots[i].n.Load()
	}
	return t
}

// monitor is the parked watchdog goroutine. Disarmed it blocks on ctl;
// armed it samples the heartbeat sum every budget/4 (min 1ms) and
// trips the flag once the sum has been flat for a full budget. The
// sampling timer is reused across runs so arming never allocates
// beyond the timer's one-time setup.
func (w *Watchdog) monitor() {
	timer := time.NewTimer(time.Hour)
	stopTimer := func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
	stopTimer()
	defer stopTimer()

	var (
		armed   bool
		flag    *Flag
		budget  time.Duration
		step    time.Duration
		last    int64
		flatFor time.Duration
	)
	arm := func(m wdCtl) {
		armed, flag, budget = true, m.flag, m.budget
		step = budget / 4
		if step < time.Millisecond {
			step = time.Millisecond
		}
		last = w.sum()
		flatFor = 0
		timer.Reset(step)
	}
	for {
		if !armed {
			m, ok := <-w.ctl
			if !ok {
				return
			}
			if m.flag != nil {
				arm(m)
			} else {
				w.ack <- struct{}{}
			}
			continue
		}
		select {
		case m, ok := <-w.ctl:
			if !ok {
				return
			}
			stopTimer()
			if m.flag != nil {
				arm(m)
			} else {
				armed, flag = false, nil
				w.ack <- struct{}{}
			}
		case <-timer.C:
			cur := w.sum()
			switch {
			case cur != last:
				last, flatFor = cur, 0
			default:
				flatFor += step
				if flatFor >= budget {
					if flag.Trip(CauseStalled) {
						w.trips.Add(1)
					}
					// Stay parked until the owner disarms and rearms;
					// the tripped run drains on its own.
					armed, flag = false, nil
					continue
				}
			}
			timer.Reset(step)
		}
	}
}
