// Package sim implements a conservative, process-oriented discrete-event
// simulation engine with virtual time.
//
// Every simulated process (an MPI rank, in this repository) runs as a
// coroutine with its own virtual clock. The engine runs exactly one
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
// Scheduling is one loop over coroutines. Engine.Run is the scheduler: on
// its caller's goroutine it pops the minimum of a binary min-heap of ready
// processes, switches to that process's coroutine (iter.Pull) and gets
// control back when the process parks — an Advance that lost the minimum
// clock, a Block, or the end of the body. Exactly one goroutine is ever
// runnable, so a switch is two coroutine switches on one OS thread and
// never goes through the Go scheduler. An Advance that still holds the
// minimum clock — the common case inside compute loops — continues without
// switching at all. Deadlock detection, panic collection and teardown live
// in that loop and nowhere else: when Run returns, every process body has
// returned or been unwound through its deferred calls, in process order.
// NewReferenceEngine retains the original linear-scan pick on the same loop
// as an oracle: both produce identical dispatch sequences (see DESIGN.md
// §13 for the equivalence argument).
package sim

import (
	"fmt"
	"iter"
	"sort"
	"strings"
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

// killed is the sentinel panic that unwinds a process body once the engine
// is dead (deadlock, another process's panic, or the end of Run). Proc.run
// swallows it, so a parked body runs its deferred cleanup and returns
// instead of leaking its coroutine.
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

	// The body and its coroutine. next switches from the scheduler loop into
	// the body and returns when the body parks or ends; yield is the way
	// back, and reports false once stop has been called. next and stop are
	// created by Run — a process that is spawned but never run holds a
	// closure, not a goroutine — and yield is handed to run by iter.Pull.
	body  func(p *Proc)
	yield func(struct{}) bool
	next  func() (struct{}, bool)
	stop  func()

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
// process simply keeps running — no switch to the scheduler loop at all.
// That fast path is exact: the heap top is the minimum of every other ready
// process, so the scheduler would have picked this process again anyway.
func (p *Proc) Advance(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q advanced by negative duration %g", p.name, d))
	}
	e := p.engine
	if e.dead {
		panic(killed{})
	}
	p.now += d
	if !e.ref {
		if len(e.heap) == 0 || lessProc(p, e.heap[0]) {
			e.events++
			return
		}
		e.heapPush(p)
	}
	// Lost the minimum — or the reference engine, which has no fast path and
	// leaves every decision to the loop's linear scan.
	p.state = stateReady
	p.park()
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
	if p.engine.dead {
		panic(killed{})
	}
	p.state = stateBlocked
	p.park()
	p.woken = false
}

// park switches to the scheduler loop and returns when the loop next picks
// this process. If the engine died in between, the body is unwound instead.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(killed{})
	}
}

// run is the coroutine: the body, and the one place that looks at how it
// ended. Recovering here rather than around next keeps a body's panic from
// being re-raised by iter.Pull in the scheduler loop, which only reads
// Engine.err. A body that ends in runtime.Goexit (t.FailNow from a rank)
// is not an outcome of the simulation: iter.Pull forwards the exit to Run's
// goroutine.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		e := p.engine
		switch r := recover(); {
		case e.dead:
			// Unwound by teardown: r is the killed sentinel, or whatever
			// the body's deferred calls raised on the way out.
		case r != nil:
			e.err = &PanicError{ProcName: p.name, Value: r}
		default:
			p.state = stateDone
			e.done++
		}
	}()
	p.body(p)
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

	// dead is set when Run tears the simulation down: from then on every
	// Advance, Block and Wake unwinds its caller with the killed sentinel.
	// A plain flag: every access is ordered by a coroutine switch.
	dead bool

	// err is the panic of a process body, left by Proc.run for the loop.
	err error
}

// NewEngine returns an empty engine ready for Spawn calls.
func NewEngine() *Engine {
	return &Engine{}
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
		body:   body,
	}
	e.procs = append(e.procs, p)
	return p
}

// Wake releases a blocked process so it resumes with its clock set to
// max(its clock, at). Wake must be called from a running process (or
// before Run from the spawning goroutine is not allowed — processes start
// ready, not blocked). Waking a process that is not blocked panics: the
// layers above (message queues) are responsible for pairing blocks and
// wakes exactly.
func (e *Engine) Wake(target *Proc, at float64) {
	if e.dead {
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
// Run is the scheduler: it runs on the caller's goroutine and switches into
// one process at a time. On either error every parked process is unwound —
// its blocked call panics with a sentinel, its deferred cleanup runs, its
// coroutine ends — in process order and before Run returns, so a failed
// simulation leaks no goroutine and leaves the same state behind every time.
func (e *Engine) Run() error {
	if e.started {
		panic("sim: Run called twice")
	}
	e.started = true
	for _, p := range e.procs {
		p.next, p.stop = iter.Pull(p.run)
		if !e.ref {
			e.heapPush(p)
		}
	}
	// Deferred, so that peers are also unwound when a body's runtime.Goexit
	// reaches this goroutine through next.
	defer e.teardown()
	for e.done < len(e.procs) {
		p := e.pick()
		if p == nil {
			return e.deadlock()
		}
		e.events++
		p.state = stateRunning
		p.next()
		if e.err != nil {
			return e.err
		}
	}
	return nil
}

// teardown kills the engine and stops every coroutine in process order. A
// parked body sees its yield return false and unwinds (park); one that never
// started runs nothing; a finished one — the panicking process included — is
// a no-op. dead is set first, so a deferred call that re-enters Advance,
// Block or Wake while unwinding is killed again instead of scheduling.
func (e *Engine) teardown() {
	e.dead = true
	for _, p := range e.procs {
		p.stop()
	}
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

// deadlock reports that no process can run: every unfinished process is
// blocked with no pending wake.
func (e *Engine) deadlock() error {
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
	return &DeadlockError{Blocked: blocked}
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
// per Advance/Yield/Block return, fast-path continues included. It is the
// engine's unit of work, so wall-clock events/sec is the natural
// simulator-throughput metric, and the count itself is deterministic.
func (e *Engine) Events() int64 { return e.events }
