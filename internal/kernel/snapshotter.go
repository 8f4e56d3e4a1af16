package kernel

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Snapshotter is the typed snapshot-serving facility of the v1 API:
// it forks its process on a timer, on demand, or both, replacing the
// ad-hoc "fork every N ms / fork per request" loops applications used
// to hand-roll. Each snapshot fork is timed, counted, and exposed via
// LastSnapshot and Totals, and the Epoch counter lets a serving layer
// tag every request with whether a snapshot fork was in flight while
// it was handled — the attribution instrument the SLO harness uses.
//
// The fork itself blocks the process's other memory accesses through
// the address-space lock, exactly the pause the paper measures on
// Redis; the child's work (serialization, verification) runs on a
// background goroutine so the serving path is blocked only for the
// fork call proper.

// ErrSnapshotterStopped reports a Snapshot call on a stopped
// Snapshotter.
var ErrSnapshotterStopped = errors.New("kernel: snapshotter is stopped")

// SnapshotStats describes one snapshot fork.
type SnapshotStats struct {
	// Seq numbers snapshots from 1 in fork order.
	Seq uint64
	// Start is when the fork began.
	Start time.Time
	// ForkLatency is the duration of the fork call itself — the window
	// during which the serving process was paused.
	ForkLatency time.Duration
	// Mode is the engine the fork used.
	Mode core.ForkMode
	// ChildPID identifies the snapshot child.
	ChildPID PID
	// Err is the child function's error, when the child work has
	// completed (always set for SnapshotSync; for asynchronous
	// snapshots it appears in LastSnapshot once the child finishes).
	Err error
}

// SnapshotterTotals aggregates a Snapshotter's lifetime statistics.
type SnapshotterTotals struct {
	Snapshots  uint64        // forks performed
	ChildErrs  uint64        // child functions that returned an error
	ForkErrs   uint64        // forks that failed outright
	ForkMean   time.Duration // mean fork pause
	ForkStdDev time.Duration // sample standard deviation of the pause
	ForkMax    time.Duration // worst fork pause
	ForkLast   time.Duration // most recent fork pause
}

// SnapshotterOpt configures StartSnapshotter.
type SnapshotterOpt func(*snapCfg)

type snapCfg struct {
	mode     core.ForkMode
	haveMode bool
	child    func(*Process) error
	notify   func(SnapshotStats)
}

// WithSnapshotMode pins the fork engine used for snapshots. Without
// it, snapshots use the engine configured for the process (SetForkMode,
// then the kernel default), like a plain Fork call.
func WithSnapshotMode(m core.ForkMode) SnapshotterOpt {
	return func(c *snapCfg) {
		c.mode = m
		c.haveMode = true
	}
}

// WithSnapshotChild installs the child-side work: fn runs on a
// background goroutine with the freshly forked child (serialize the
// snapshot, verify it, ...). The snapshotter exits the child after fn
// returns; fn errors are counted and surface in LastSnapshot. Without
// this option the child exits immediately, making each snapshot a pure
// pause-time probe.
func WithSnapshotChild(fn func(*Process) error) SnapshotterOpt {
	return func(c *snapCfg) { c.child = fn }
}

// WithSnapshotNotify calls fn after each snapshot's child work
// completes (on the child goroutine). Stats include the child error.
func WithSnapshotNotify(fn func(SnapshotStats)) SnapshotterOpt {
	return func(c *snapCfg) { c.notify = fn }
}

// Snapshotter periodically (and on demand) snapshots one process by
// forking it. Create one with Process.StartSnapshotter; stop it with
// Stop. All methods are safe for concurrent use.
type Snapshotter struct {
	p   *Process
	cfg snapCfg

	// epoch is a seqlock-style counter: odd while a snapshot fork is in
	// flight, even otherwise. A reader sampling it before and after an
	// operation detects any overlapping fork (odd value or change).
	epoch atomic.Uint64

	seq       atomic.Uint64
	childErrs atomic.Uint64
	forkErrs  atomic.Uint64
	forkSumNS atomic.Uint64
	forkSSqNS atomic.Uint64 // sum of squared ns (stddev; ~10ms forks for years before overflow)
	forkMaxNS atomic.Uint64
	forkLast  atomic.Uint64

	mu      sync.Mutex // guards last, stopped, and snapshot serialization
	last    SnapshotStats
	hasLast bool
	stopped bool

	stop     chan struct{}
	timerWG  sync.WaitGroup // the timer goroutine
	childWG  sync.WaitGroup // in-flight child functions
	interval time.Duration
}

// StartSnapshotter begins snapshotting p. With interval > 0 a
// background goroutine forks p every interval (counting from the end
// of the previous snapshot's fork); with interval <= 0 no timer runs
// and snapshots happen only on demand via Snapshot or SnapshotSync.
// Stop the returned handle when done — Stop halts the timer and waits
// for outstanding child work.
func (p *Process) StartSnapshotter(interval time.Duration, opts ...SnapshotterOpt) (*Snapshotter, error) {
	if p.Exited() {
		return nil, fmt.Errorf("kernel: snapshotter on exited process %d: %w", p.pid, ErrExited)
	}
	s := &Snapshotter{p: p, stop: make(chan struct{}), interval: interval}
	for _, o := range opts {
		o(&s.cfg)
	}
	if interval > 0 {
		s.timerWG.Add(1)
		go s.timerLoop()
	}
	return s, nil
}

func (s *Snapshotter) timerLoop() {
	defer s.timerWG.Done()
	t := time.NewTimer(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			// Errors are recorded in the totals and LastSnapshot; a
			// timer-driven snapshotter keeps going (a failed fork under
			// memory pressure should not silently end snapshotting).
			_, _ = s.snapshot(false, nil)
			t.Reset(s.interval)
		}
	}
}

// Snapshot takes one snapshot now: it forks the process (pausing it
// for the fork's duration), hands the child to the configured child
// function on a background goroutine, and returns the fork's stats
// without waiting for the child work.
func (s *Snapshotter) Snapshot() (SnapshotStats, error) { return s.snapshot(false, nil) }

// SnapshotWith is Snapshot with a per-call child function overriding
// the configured one (e.g. a serializer bound to a specific output).
func (s *Snapshotter) SnapshotWith(fn func(*Process) error) (SnapshotStats, error) {
	return s.snapshot(false, fn)
}

// SnapshotSync takes one snapshot and waits for the child work to
// finish before returning; the returned stats carry the child error.
// fn overrides the configured child function when non-nil.
func (s *Snapshotter) SnapshotSync(fn func(*Process) error) (SnapshotStats, error) {
	return s.snapshot(true, fn)
}

func (s *Snapshotter) snapshot(sync bool, fn func(*Process) error) (SnapshotStats, error) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return SnapshotStats{}, ErrSnapshotterStopped
	}
	mode := s.cfg.mode
	if !s.cfg.haveMode {
		mode = s.p.k.forkModeFor(s.p.pid)
	}

	s.epoch.Add(1) // odd: fork in flight
	start := time.Now()
	child, err := s.p.Fork(WithMode(mode))
	lat := time.Since(start)
	s.epoch.Add(1) // even again
	if err != nil {
		s.forkErrs.Add(1)
		s.mu.Unlock()
		return SnapshotStats{Start: start, Mode: mode}, err
	}

	ns := uint64(lat)
	s.forkSumNS.Add(ns)
	s.forkSSqNS.Add(ns * ns)
	s.forkLast.Store(ns)
	for {
		m := s.forkMaxNS.Load()
		if ns <= m || s.forkMaxNS.CompareAndSwap(m, ns) {
			break
		}
	}
	st := SnapshotStats{
		Seq:         s.seq.Add(1),
		Start:       start,
		ForkLatency: lat,
		Mode:        mode,
		ChildPID:    child.PID(),
	}
	s.last = st
	s.hasLast = true
	if fn == nil {
		fn = s.cfg.child
	}
	s.childWG.Add(1)
	s.mu.Unlock()

	if sync {
		st.Err = s.runChild(child, st, fn)
		return st, nil
	}
	go s.runChild(child, st, fn)
	return st, nil
}

// runChild executes the child-side work and retires the child.
func (s *Snapshotter) runChild(child *Process, st SnapshotStats, fn func(*Process) error) error {
	defer s.childWG.Done()
	var err error
	if fn != nil {
		err = fn(child)
	}
	child.Exit()
	st.Err = err
	if err != nil {
		s.childErrs.Add(1)
	}
	s.mu.Lock()
	if s.last.Seq == st.Seq {
		s.last = st
	}
	s.mu.Unlock()
	if s.cfg.notify != nil {
		s.cfg.notify(st)
	}
	return err
}

// Stop halts the timer, waits for in-flight child work to finish, and
// marks the snapshotter stopped; further Snapshot calls fail with
// ErrSnapshotterStopped. Stop is idempotent.
func (s *Snapshotter) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	close(s.stop)
	s.mu.Unlock()
	s.timerWG.Wait()
	s.childWG.Wait()
}

// LastSnapshot returns the most recent snapshot's stats (child error
// included once the child work has finished) and whether any snapshot
// has been taken.
func (s *Snapshotter) LastSnapshot() (SnapshotStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last, s.hasLast
}

// Process returns the process this snapshotter forks. The serving tier
// uses it to stamp the request correlation id onto the address space
// before a snapshot fork, so the fork and its COW faults trace back to
// the request that triggered them.
func (s *Snapshotter) Process() *Process { return s.p }

// ForkInFlight reports whether a snapshot fork is in progress right
// now.
func (s *Snapshotter) ForkInFlight() bool { return s.epoch.Load()&1 == 1 }

// Epoch returns the fork seqlock: odd while a snapshot fork is in
// flight. Sampling it before and after handling a request detects any
// overlap with a fork (odd sample, or a change between the samples) —
// the serving tier's fork-coincidence tag.
func (s *Snapshotter) Epoch() uint64 { return s.epoch.Load() }

// Snapshots returns the number of snapshot forks performed.
func (s *Snapshotter) Snapshots() uint64 { return s.seq.Load() }

// Totals returns the lifetime aggregate statistics.
func (s *Snapshotter) Totals() SnapshotterTotals {
	n := s.seq.Load()
	t := SnapshotterTotals{
		Snapshots: n,
		ChildErrs: s.childErrs.Load(),
		ForkErrs:  s.forkErrs.Load(),
		ForkMax:   time.Duration(s.forkMaxNS.Load()),
		ForkLast:  time.Duration(s.forkLast.Load()),
	}
	if n > 0 {
		sum := float64(s.forkSumNS.Load())
		t.ForkMean = time.Duration(sum / float64(n))
		if n > 1 {
			ssq := float64(s.forkSSqNS.Load())
			varNS := (ssq - sum*sum/float64(n)) / float64(n-1)
			if varNS > 0 {
				t.ForkStdDev = time.Duration(math.Sqrt(varNS))
			}
		}
	}
	return t
}
