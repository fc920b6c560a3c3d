// Package sim implements a conservative, process-oriented discrete-event
// simulation engine with virtual time.
//
// Every simulated process (an MPI rank, in this repository) runs as a
// goroutine with its own virtual clock. The engine resumes exactly one
// process at a time — always the ready process with the smallest
// (virtual time, id) pair — so simulations are fully deterministic: the
// same program produces bit-identical virtual timings on every run and on
// every host machine.
//
// Processes advance their clocks with Advance, park themselves with Block
// and are released by other processes through Wake. Shared hardware
// (disks, NICs, lock managers) is modelled by Server, a virtual-time FIFO
// queue. The scheduling invariant — the running process always holds the
// minimum clock among ready processes, and Wake never moves a clock
// backwards — guarantees that every Server observes requests in
// nondecreasing virtual-time order, which keeps the queueing model causal.
//
// Scheduling is a direct goroutine-to-goroutine baton handoff over a
// binary min-heap of ready processes: the yielding process pops the next
// minimum and resumes it with a single channel send (one synchronization
// per dispatch), and an Advance that still holds the minimum clock — the
// common case inside compute loops — continues without any channel
// operation at all. NewReferenceEngine retains the original central-loop
// linear-scan scheduler as an oracle: both schedulers produce identical
// dispatch sequences (see DESIGN.md §13 for the equivalence argument).
package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// procState tracks where a process is in its lifecycle.
type procState int

const (
	stateReady procState = iota
	stateRunning
	stateBlocked
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateBlocked:
		return "blocked"
	case stateDone:
		return "done"
	}
	return "unknown"
}

// killed is the sentinel panic that unwinds a process goroutine after the
// engine has died (deadlock or another process's panic). The spawn wrapper
// swallows it, so released goroutines run their deferred cleanup and exit
// instead of leaking.
type killed struct{}

// Proc is a simulated process. A Proc is created by Engine.Spawn and its
// methods may only be called from inside its own body function, except for
// the read-only accessors ID, Name and Now.
type Proc struct {
	id     int
	name   string
	engine *Engine

	now    float64
	state  procState
	reason string       // why blocked, for deadlock reports
	why    fmt.Stringer // BlockOn's reason, formatted only if a deadlock is reported
	woken  bool         // Wake delivered, dispatch pending (duplicate detection)

	resume chan struct{}

	// trace is an opaque per-process observability context (owned by
	// package obs). The engine never reads it; it rides on the Proc so
	// instrumentation deep in the stack can find its tracer without
	// threading a parameter through every layer.
	trace any

	// class is the service class shared servers use to arbitrate between
	// tenants (0 = the default class). Like trace it rides on the Proc so
	// the storage stack can find the requester's class without threading a
	// parameter through every layer; the engine itself never reads it.
	class int
}

// ID returns the process id (dense, starting at 0 in spawn order).
func (p *Proc) ID() int { return p.id }

// Name returns the human-readable name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the process's current virtual time in seconds.
func (p *Proc) Now() float64 { return p.now }

// Engine returns the engine that owns this process.
func (p *Proc) Engine() *Engine { return p.engine }

// SetTrace attaches an opaque observability context to this process (nil
// detaches). Tracing never advances virtual clocks, so an attached context
// cannot perturb the simulation.
func (p *Proc) SetTrace(v any) { p.trace = v }

// Trace returns the context set by SetTrace, or nil.
func (p *Proc) Trace() any { return p.trace }

// SetClass tags this process with a service class. Servers running a
// class-aware scheduling policy (Server.SetPolicy) use the class to
// arbitrate between tenants; under the default FIFO policy the class is
// ignored, so tagging never perturbs a single-tenant run.
func (p *Proc) SetClass(c int) { p.class = c }

// Class returns the service class set by SetClass (0 by default).
func (p *Proc) Class() int { return p.class }

// Advance moves this process's virtual clock forward by d seconds and
// yields to the scheduler so that any process with an earlier clock can
// run first. Negative d panics: virtual time never flows backwards.
//
// When the advanced clock is still the minimum among ready processes the
// process simply keeps running — no handoff, no channel operation. That
// fast path is exact: the heap top is the minimum of every other ready
// process, so the scheduler would have picked this process again anyway.
func (p *Proc) Advance(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q advanced by negative duration %g", p.name, d))
	}
	e := p.engine
	if e.dead.Load() {
		panic(killed{})
	}
	p.now += d
	if !e.ref {
		if len(e.heap) == 0 || lessProc(p, e.heap[0]) {
			e.events++
			return
		}
		p.state = stateReady
		e.heapPush(p)
		e.handoff(p, e.heapPop())
		return
	}
	// Reference scheduler: full linear scan on every yield, no fast path.
	p.state = stateReady
	next := e.minReady()
	if next == p {
		p.state = stateRunning
		e.events++
		return
	}
	e.handoff(p, next)
}

// Yield gives the scheduler a chance to run earlier processes without
// moving this process's clock. It is equivalent to Advance(0).
func (p *Proc) Yield() { p.Advance(0) }

// AdvanceTo moves the clock forward to absolute virtual time t. If t is in
// this process's past the clock is left unchanged (a process can wait for a
// moment that has already passed, which costs nothing).
func (p *Proc) AdvanceTo(t float64) {
	if t > p.now {
		p.Advance(t - p.now)
	} else {
		p.Yield()
	}
}

// Block parks the process until another process calls Engine.Wake on it.
// reason appears in deadlock reports. On return the clock has been moved
// to max(previous now, wake time).
func (p *Proc) Block(reason string) {
	p.reason = reason
	p.block()
	p.reason = ""
}

// BlockOn is Block with a reason that is only formatted if a deadlock report
// needs it — for hot paths (message receives) that would otherwise build a
// string on every park. why must stay valid until BlockOn returns.
func (p *Proc) BlockOn(why fmt.Stringer) {
	p.why = why
	p.block()
	p.why = nil
}

func (p *Proc) block() {
	e := p.engine
	if e.dead.Load() {
		panic(killed{})
	}
	p.state = stateBlocked
	next := e.pick()
	if next == nil {
		// Every unfinished process is blocked, this one included: declare
		// the deadlock, release the others and unwind.
		e.failDeadlock(p)
		panic(killed{})
	}
	e.handoff(p, next)
	p.woken = false
}

// Engine owns a set of processes and schedules them in virtual time.
// The zero value is not usable; call NewEngine.
type Engine struct {
	procs   []*Proc
	started bool
	done    int
	events  int64 // scheduler dispatches; see Events

	// heap is the ready queue: a binary min-heap on (now, id) holding every
	// ready process except the one currently running. Keys are immutable
	// while queued — a running process is never in the heap and Wake pushes
	// a blocked process exactly once — so no decrease-key is ever needed.
	heap []*Proc

	// ref selects the retained reference scheduler (linear scan, no fast
	// path); see NewReferenceEngine.
	ref bool

	// dead flags a failed engine (deadlock or panic): every parked process
	// is released with a killed sentinel so goroutines do not leak.
	dead atomic.Bool

	// term carries the simulation outcome from the last process goroutine
	// to Run.
	term chan termination
}

type termination struct {
	err error
}

// NewEngine returns an empty engine ready for Spawn calls.
func NewEngine() *Engine {
	return &Engine{term: make(chan termination, 1)}
}

// NewReferenceEngine returns an engine that schedules with the original
// O(n)-per-dispatch linear scan and never takes the Advance fast path. It
// is retained as the oracle for the heap scheduler: any program must
// produce the identical dispatch sequence, clocks and event count on both.
// Tests use it; production callers want NewEngine.
func NewReferenceEngine() *Engine {
	e := NewEngine()
	e.ref = true
	return e
}

// Spawn registers a new process whose body is run when Engine.Run is
// called. Spawn must not be called after Run has started.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	if e.started {
		panic("sim: Spawn called after Run")
	}
	p := &Proc{
		id:     len(e.procs),
		name:   name,
		engine: e,
		state:  stateReady,
		resume: make(chan struct{}),
	}
	e.procs = append(e.procs, p)
	go func() {
		<-p.resume
		if e.dead.Load() {
			return
		}
		p.state = stateRunning
		defer func() {
			r := recover()
			if e.dead.Load() {
				// The engine already failed: this goroutine was released
				// (r is the killed sentinel) or declared the deadlock
				// itself. Exit without touching the scheduler.
				return
			}
			if r != nil {
				e.fail(p, &PanicError{ProcName: p.name, Value: r})
				return
			}
			p.state = stateDone
			e.done++
			e.finish()
		}()
		body(p)
	}()
	return p
}

// Wake releases a blocked process so it resumes with its clock set to
// max(its clock, at). Wake must be called from a running process (or
// before Run from the spawning goroutine is not allowed — processes start
// ready, not blocked). Waking a process that is not blocked panics: the
// layers above (message queues) are responsible for pairing blocks and
// wakes exactly.
func (e *Engine) Wake(target *Proc, at float64) {
	if e.dead.Load() {
		panic(killed{})
	}
	if target.woken {
		panic(fmt.Sprintf("sim: duplicate Wake(%q)", target.name))
	}
	if target.state != stateBlocked {
		panic(fmt.Sprintf("sim: Wake(%q) but process is %v", target.name, target.state))
	}
	target.woken = true
	if at > target.now {
		target.now = at
	}
	target.state = stateReady
	if !e.ref {
		e.heapPush(target)
	}
}

// DeadlockError reports that no process can make progress: every
// unfinished process is blocked with no pending wake.
type DeadlockError struct {
	// Blocked lists "name@time: reason" for each stuck process.
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock, %d processes blocked: %s",
		len(e.Blocked), strings.Join(e.Blocked, "; "))
}

// PanicError reports that a process body panicked.
type PanicError struct {
	ProcName string
	Value    any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", e.ProcName, e.Value)
}

// Run executes the simulation until every process has finished. It returns
// a *DeadlockError if processes remain but none can run, and a *PanicError
// if a process body panics. Run may be called only once.
//
// On either error every process goroutine is released: parked goroutines
// are resumed with a poisoned engine, run their deferred cleanup and exit,
// so a failed simulation does not leak goroutines.
func (e *Engine) Run() error {
	if e.started {
		panic("sim: Run called twice")
	}
	e.started = true
	if len(e.procs) == 0 {
		return nil
	}
	if !e.ref {
		for _, p := range e.procs {
			e.heapPush(p)
		}
	}
	e.dispatch(e.pick())
	t := <-e.term
	return t.err
}

// pick removes and returns the next process to run (nil when no process is
// ready): the heap minimum, or the linear-scan minimum on the reference
// engine.
func (e *Engine) pick() *Proc {
	if e.ref {
		return e.minReady()
	}
	return e.heapPop()
}

// dispatch resumes next without parking the caller — the Run seed and a
// finishing process's last act.
func (e *Engine) dispatch(next *Proc) {
	e.events++
	next.resume <- struct{}{}
}

// handoff passes the baton from p to next with a single channel send, then
// parks p until its own next dispatch. This is the one synchronization per
// dispatch that replaced the old resume+yield round trip through a central
// scheduler loop.
func (e *Engine) handoff(p, next *Proc) {
	e.dispatch(next)
	<-p.resume
	if e.dead.Load() {
		panic(killed{})
	}
	p.state = stateRunning
}

// finish runs as a completed process's last act: hand the baton to the
// next ready process, or end the simulation.
func (e *Engine) finish() {
	next := e.pick()
	if next == nil {
		if e.done == len(e.procs) {
			e.term <- termination{}
			return
		}
		e.failDeadlock(nil)
		return
	}
	e.dispatch(next)
}

// failDeadlock reports that no process can run. self is the blocked caller
// when the deadlock was discovered inside Block (it must not be released —
// it is not parked), nil when discovered by a finishing process.
func (e *Engine) failDeadlock(self *Proc) {
	var blocked []string
	for _, p := range e.procs {
		if p.state == stateBlocked {
			reason := p.reason
			if p.why != nil {
				reason = p.why.String()
			}
			blocked = append(blocked, fmt.Sprintf("%s@%.6f: %s", p.name, p.now, reason))
		}
	}
	sort.Strings(blocked)
	e.fail(self, &DeadlockError{Blocked: blocked})
}

// fail poisons the engine, releases every parked process goroutine so none
// leaks — each wakes, sees the dead flag, unwinds through its deferred
// cleanup and exits — and delivers err to Run. self is excluded from the
// release: it is the caller's own process (running, or blocked-but-not-yet
// -parked inside Block) and unwinds itself.
func (e *Engine) fail(self *Proc, err error) {
	e.dead.Store(true)
	for _, q := range e.procs {
		if q == self || q.state == stateDone || q.state == stateRunning {
			continue
		}
		q.resume <- struct{}{}
	}
	e.term <- termination{err: err}
}

// lessProc is the scheduling order: earliest virtual time first, process
// id as the tie-break.
func lessProc(a, b *Proc) bool {
	return a.now < b.now || (a.now == b.now && a.id < b.id)
}

// heapPush adds p to the ready heap.
func (e *Engine) heapPush(p *Proc) {
	h := append(e.heap, p)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !lessProc(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

// heapPop removes and returns the minimum of the ready heap (nil when
// empty).
func (e *Engine) heapPop() *Proc {
	h := e.heap
	n := len(h)
	if n == 0 {
		return nil
	}
	top := h[0]
	n--
	h[0] = h[n]
	h[n] = nil // release the reference for GC
	h = h[:n]
	e.heap = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && lessProc(h[l], h[min]) {
			min = l
		}
		if r < n && lessProc(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// minReady picks the ready process with the smallest (now, id) — the
// reference engine's linear scan, unchanged from the original scheduler.
func (e *Engine) minReady() *Proc {
	var best *Proc
	for _, p := range e.procs {
		if p.state != stateReady {
			continue
		}
		if best == nil || lessProc(p, best) {
			best = p
		}
	}
	return best
}

// MaxTime returns the largest virtual clock across all processes. It is
// meaningful after Run has returned nil and represents the simulated
// makespan of the whole program.
func (e *Engine) MaxTime() float64 {
	var m float64
	for _, p := range e.procs {
		if p.now > m {
			m = p.now
		}
	}
	return m
}

// NumProcs returns the number of spawned processes.
func (e *Engine) NumProcs() int { return len(e.procs) }

// Events returns how many times the scheduler dispatched a process — one
// per Advance/Yield/Block resume, fast-path continues included. It is the
// engine's unit of work, so wall-clock events/sec is the natural
// simulator-throughput metric, and the count itself is deterministic.
func (e *Engine) Events() int64 { return e.events }
