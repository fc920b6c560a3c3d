package mpi

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/sim"
)

// World is a simulated MPI_COMM_WORLD: a fixed set of ranks bound to
// virtual-time processes on one machine. Multiple worlds may share one
// engine and machine (multi-tenant runs); NewWorldAt places each on a
// disjoint node range.
type World struct {
	eng   *sim.Engine
	mach  *machine.Machine
	size  int
	ranks []*Rank

	// Where this world sits on a shared machine: nodeBase offsets the
	// rank→node packing, and class tags every rank's Proc for class-aware
	// server scheduling policies.
	nodeBase int
	class    int

	// msgFree recycles message envelopes (not payloads — those are handed
	// to receivers). Per-world, not global: worlds on different engines run
	// concurrently, and within one engine only one process runs at a time,
	// so the free list needs no locking.
	msgFree []*message
}

// getMsg pops a recycled envelope or allocates a fresh one.
func (w *World) getMsg() *message {
	if n := len(w.msgFree); n > 0 {
		m := w.msgFree[n-1]
		w.msgFree = w.msgFree[:n-1]
		return m
	}
	return &message{}
}

// putMsg returns a consumed envelope to the free list. The payload slice
// now belongs to the receiver, so the reference is dropped here.
func (w *World) putMsg(m *message) {
	m.payload = View{}
	w.msgFree = append(w.msgFree, m)
}

// NewWorld creates a world of nprocs ranks on the given machine, spawning
// one simulation process per rank running body. Call eng.Run to execute.
func NewWorld(eng *sim.Engine, mach *machine.Machine, nprocs int, body func(r *Rank)) *World {
	return NewWorldAt(eng, mach, nprocs, Placement{}, body)
}

// Placement describes where (and as whom) a tenant world runs on a shared
// machine. The zero Placement is the historical single-tenant world: nodes
// from 0, processes named "rank<i>", service class 0.
type Placement struct {
	// Name prefixes process names ("<name>/rank<i>") so engine diagnostics
	// and observability distinguish jobs. Empty keeps the bare "rank<i>".
	Name string
	// NodeBase is the first physical node of this world's allocation; its
	// ranks pack nodes [NodeBase, NodeBase+ceil(nprocs/ProcsPerNode)).
	NodeBase int
	// Class is the service class every rank's Proc is tagged with, which
	// class-aware server policies (sim.Server.SetPolicy) arbitrate on.
	Class int
}

// NewWorldAt is NewWorld with an explicit Placement, for multi-tenant runs
// sharing one engine and machine. Worlds must be placed on disjoint node
// ranges; the placement is validated against the machine's topology.
func NewWorldAt(eng *sim.Engine, mach *machine.Machine, nprocs int, pl Placement, body func(r *Rank)) *World {
	if nprocs <= 0 {
		panic("mpi: world needs at least one rank")
	}
	if pl.NodeBase < 0 {
		panic(fmt.Sprintf("mpi: negative node base %d", pl.NodeBase))
	}
	ppn := mach.Config().ProcsPerNode
	nodesNeeded := (nprocs + ppn - 1) / ppn
	if pl.NodeBase+nodesNeeded > mach.Config().Nodes {
		panic(fmt.Sprintf("mpi: %d ranks at node base %d exceed machine %s capacity (%d nodes x %d procs)",
			nprocs, pl.NodeBase, mach.Name(), mach.Config().Nodes, ppn))
	}
	w := &World{eng: eng, mach: mach, size: nprocs, nodeBase: pl.NodeBase, class: pl.Class}
	prefix := ""
	if pl.Name != "" {
		prefix = pl.Name + "/"
	}
	w.ranks = make([]*Rank, nprocs)
	for i := 0; i < nprocs; i++ {
		r := &Rank{world: w, rank: i}
		w.ranks[i] = r
		r.proc = eng.Spawn(fmt.Sprintf("%srank%d", prefix, i), func(p *sim.Proc) {
			r.proc = p
			p.SetClass(pl.Class)
			body(r)
		})
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Class returns the service class this world's ranks are tagged with.
func (w *World) Class() int { return w.class }

// Node maps one of this world's ranks to its physical machine node:
// the machine's default packing shifted by the world's node base. All
// rank→node resolution must go through here (not Machine.Node) so tenant
// worlds land on their own allocation.
func (w *World) Node(rank int) int { return w.nodeBase + w.mach.Node(rank) }

// Machine returns the platform model the world runs on.
func (w *World) Machine() *machine.Machine { return w.mach }

// Engine returns the simulation engine.
func (w *World) Engine() *sim.Engine { return w.eng }

// Rank returns rank r's handle (valid after NewWorld returns).
func (w *World) Rank(r int) *Rank { return w.ranks[r] }

// Simulate is a convenience wrapper: build a machine and a world, run the
// simulation, and return the makespan in virtual seconds.
func Simulate(cfg machine.Config, nprocs int, body func(r *Rank)) (makespan float64, err error) {
	eng := sim.NewEngine()
	mach := machine.New(cfg)
	NewWorld(eng, mach, nprocs, body)
	if err := eng.Run(); err != nil {
		return 0, err
	}
	return eng.MaxTime(), nil
}

// message is an in-flight or delivered point-to-point message.
type message struct {
	src, tag int
	payload  View // as sent; a plain message's is packed (Base alone)
	arrival  float64
	seq      int64 // global insertion order, for deterministic matching
}

// Rank is one simulated MPI process. All methods must be called from
// within the rank's own body function.
type Rank struct {
	world *World
	rank  int
	proc  *sim.Proc

	inbox      []*message
	waiting    recvWait
	hasWaiting bool
	msgSeq     int64
	collSeq    int // per-rank collective sequence number (SPMD order)

	// Stats
	bytesSent int64
	msgsSent  int64

	// scratch is the free list behind Scratch.
	scratch []any
}

type recvWait struct {
	src, tag int
	irecv    bool // parked in Request.Wait rather than Recv (deadlock text only)
}

// String is the deadlock-report reason of a parked receive. The rank hands
// sim.Proc.BlockOn a pointer to its waiting field, so this only runs when a
// deadlock is actually reported.
func (w *recvWait) String() string {
	if w.irecv {
		return fmt.Sprintf("Wait(Irecv src=%d, tag=%d)", w.src, w.tag)
	}
	return fmt.Sprintf("Recv(src=%d, tag=%d)", w.src, w.tag)
}

// Rank returns this process's rank id.
func (r *Rank) Rank() int { return r.rank }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.world.size }

// World returns the owning world.
func (r *Rank) World() *World { return r.world }

// Proc exposes the underlying simulation process (for clock access).
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Scratch returns the rank's free list of scratch bundles, for the library
// layered on this rank (mpiio) to push and pop: buffers that would otherwise
// be rebuilt per file handle or per collective stay with the rank that grew
// them. Like World.msgFree it needs no lock — only the rank's own body
// touches it — and it is collected with the world, so worlds on concurrent
// engines share nothing.
func (r *Rank) Scratch() *[]any { return &r.scratch }

// Node returns the physical machine node this rank runs on (placement-
// aware; see World.Node).
func (r *Rank) Node() int { return r.world.Node(r.rank) }

// Now returns the rank's current virtual time.
func (r *Rank) Now() float64 { return r.proc.Now() }

// Compute advances the rank's clock by the cost of the given number of
// abstract cell updates on this machine.
func (r *Rank) Compute(cellUpdates int64) {
	r.proc.Advance(r.world.mach.ComputeTime(cellUpdates))
}

// CopyCost advances the rank's clock by the cost of a memory copy of the
// given size (buffer packing/unpacking).
func (r *Rank) CopyCost(bytes int64) {
	r.proc.Advance(r.world.mach.CopyTime(bytes))
}

// BytesSent returns the number of point-to-point payload bytes this rank
// has injected (collectives included, since they are built from p2p).
func (r *Rank) BytesSent() int64 { return r.bytesSent }

// MsgsSent returns the number of point-to-point messages sent.
func (r *Rank) MsgsSent() int64 { return r.msgsSent }

// Wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// MaxUserTag is the highest tag application code may use; larger tags are
// reserved for collectives and libraries (mpiio, hdf5).
const MaxUserTag = 1 << 16

// Send transmits data to rank dst with the given tag. The payload is
// copied, so the caller may reuse the buffer immediately. Send returns when
// the sender CPU is free (after software overhead and NIC injection), not
// when the message arrives: buffering is unbounded, as in a simulator it
// can be.
func (r *Rank) Send(dst, tag int, data []byte) {
	r.proc.AdvanceTo(r.post(dst, tag, data))
}

// sendScratch is Send without the payload clone: the receiver gets the
// caller's buffer by reference, as every collective delivers (the package's
// write-once rule). Timing, stats, and matching are identical to Send; only
// the defensive copy is skipped.
func (r *Rank) sendScratch(dst, tag int, data []byte) { r.sendView(dst, tag, Packed(data)) }

// sendView is sendScratch for a view: the receiver gets the view as sent,
// and the transfer is charged at its packed size.
func (r *Rank) sendView(dst, tag int, v View) {
	r.proc.AdvanceTo(r.postRef(dst, tag, v))
}

// post does all the sender-side work of a buffered send — payload copy,
// transfer charging, inbox insertion, waiter wake-up — except advancing the
// caller's clock, and returns the virtual time at which the sender CPU is
// free. Send completes by advancing to it; Isend defers that advance to the
// matching Wait.
func (r *Rank) post(dst, tag int, data []byte) (senderFree float64) {
	// append instead of make+copy: the clone must not pay for zeroing
	// memory it immediately overwrites — this copy is on every cloned message's
	// path.
	return r.postRef(dst, tag, Packed(append([]byte{}, data...)))
}

// postRef is post minus the defensive clone: the message delivers payload
// by reference, a view as a view. Callers must guarantee the buffer is not
// mutated until the receiver has consumed it (the package's write-once
// rule).
func (r *Rank) postRef(dst, tag int, payload View) (senderFree float64) {
	if dst < 0 || dst >= r.world.size {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d", dst))
	}
	n := payload.Bytes()
	senderFree, arrival := r.world.mach.TransferNodes(r.world.Node(r.rank), r.world.Node(dst), n, r.Now())
	r.bytesSent += n
	r.msgsSent++
	target := r.world.ranks[dst]
	target.msgSeq++
	m := r.world.getMsg()
	*m = message{src: r.rank, tag: tag, payload: payload, arrival: arrival, seq: target.msgSeq}
	target.inbox = append(target.inbox, m)
	if target.hasWaiting && matches(target.waiting, m) {
		target.hasWaiting = false
		r.world.eng.Wake(target.proc, arrival)
	}
	return senderFree
}

// Recv blocks until a message matching (src, tag) is available and returns
// its payload and envelope. src may be AnySource and tag may be AnyTag.
// Among matching messages the one with the earliest arrival (then lowest
// sequence number) is delivered, so matching is deterministic.
func (r *Rank) Recv(src, tag int) (data []byte, fromSrc, fromTag int) {
	m := r.await(src, tag)
	data, fromSrc, fromTag = m.payload.Base, m.src, m.tag
	r.world.putMsg(m)
	return data, fromSrc, fromTag
}

// recvView is Recv for the collectives that carry views: the payload as it
// was sent.
func (r *Rank) recvView(src, tag int) View {
	m := r.await(src, tag)
	v := m.payload
	r.world.putMsg(m)
	return v
}

// await blocks until a message matching (src, tag) is available, advances
// the clock to its arrival and takes it out of the inbox; the caller hands
// the envelope back with putMsg.
func (r *Rank) await(src, tag int) *message {
	for {
		if m := r.takeMatch(src, tag, math.Inf(1)); m != nil {
			r.proc.AdvanceTo(m.arrival)
			return m
		}
		r.waiting = recvWait{src: src, tag: tag}
		r.hasWaiting = true
		r.proc.BlockOn(&r.waiting)
	}
}

func matches(w recvWait, m *message) bool {
	return (w.src == AnySource || w.src == m.src) && (w.tag == AnyTag || w.tag == m.tag)
}

// takeMatch removes and returns the message a receive of (src, tag)
// delivers among those arrived by cutoff: the earliest arrival, then the
// lowest sequence number. Recv and Wait pass +Inf; Test passes its clock,
// as it must not advance it and so cannot deliver a message from the future.
func (r *Rank) takeMatch(src, tag int, cutoff float64) *message {
	w := recvWait{src: src, tag: tag}
	bestIdx := -1
	for i, m := range r.inbox {
		if !matches(w, m) || m.arrival > cutoff {
			continue
		}
		if bestIdx == -1 {
			bestIdx = i
			continue
		}
		b := r.inbox[bestIdx]
		if m.arrival < b.arrival || (m.arrival == b.arrival && m.seq < b.seq) {
			bestIdx = i
		}
	}
	if bestIdx == -1 {
		return nil
	}
	m := r.inbox[bestIdx]
	r.inbox = append(r.inbox[:bestIdx], r.inbox[bestIdx+1:]...)
	return m
}

// Sendrecv sends to dst and receives from src with the same tag, in an
// order that cannot deadlock under this package's buffered Send.
func (r *Rank) Sendrecv(dst int, sendData []byte, src, tag int) []byte {
	r.Send(dst, tag, sendData)
	data, _, _ := r.Recv(src, tag)
	return data
}
