// Package obs is the stack-wide observability layer: hierarchical spans,
// Darshan-style per-rank per-file counters and Chrome-trace export, all in
// virtual time.
//
// The design constraint is zero perturbation: instrumentation only ever
// reads the virtual clock (Proc.Now), never advances it, so a simulation
// with a Tracer attached produces bit-identical virtual timings to the same
// simulation without one. A Tracer rides on each sim.Proc through the
// opaque Proc trace slot; every layer of the stack (enzo, hdf5/hdf4,
// mpiio, mpi, pfs) opens spans through obs.Begin, which is a no-op when no
// tracer is attached.
//
// This is the reproduction's equivalent of the Pablo instrumentation the
// paper's analysis was built on, extended with the per-file counter records
// popularized by Darshan and a Perfetto-loadable timeline export.
package obs

import (
	"slices"
	"sync"

	"repro/internal/sim"
)

// Layer identifies which level of the I/O stack a span belongs to.
type Layer int

// Stack layers, from application down to the storage hardware.
const (
	LayerApp   Layer = iota // enzo application phases, per-grid I/O
	LayerHDF                // HDF5 / HDF4 library
	LayerMPIIO              // MPI-IO (ROMIO model): collective buffering, sieving
	LayerMPI                // message passing: collectives, point-to-point
	LayerPFS                // parallel file system calls
	LayerCodec              // grid-data compression/decompression CPU
	numLayers
)

func (l Layer) String() string {
	switch l {
	case LayerApp:
		return "app"
	case LayerHDF:
		return "hdf"
	case LayerMPIIO:
		return "mpiio"
	case LayerMPI:
		return "mpi"
	case LayerPFS:
		return "pfs"
	case LayerCodec:
		return "codec"
	}
	return "unknown"
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// Span is one completed (or still-open) region of virtual time on a rank.
// Spans form a tree per rank: Parent indexes the same rank's span slice
// (-1 for a root span).
type Span struct {
	Rank   int
	Layer  Layer
	Name   string
	Start  float64 // virtual seconds
	End    float64
	Bytes  int64
	Parent int
	Depth  int
	Attrs  []Attr
}

// Dur returns the span's virtual duration.
func (s Span) Dur() float64 { return s.End - s.Start }

// ServeEvent is one request observed on a sim.Server: it arrived at Arrive,
// started service at Start (after queueing behind earlier requests) and
// completed at End.
type ServeEvent struct {
	Arrive float64
	Start  float64
	End    float64
}

// Tracer collects spans, counters and server events for one simulation
// run. Attach it to each rank's Proc before the rank body runs; the stack
// below finds it through obs.Begin. The engine serializes all simulated
// work, so per-rank state needs no locking; the mutex protects the shared
// tables for the race detector's benefit and for post-run readers.
type Tracer struct {
	mu sync.Mutex

	ranks []*procTrace // indexed by rank; nil for unattached ranks

	serverNames []string // first-observation order (deterministic: engine is serialized)
	serverIdx   map[string]int
	serves      [][]ServeEvent // per server, observation order

	counters map[counterKey]*FileCounters
	ckeys    []counterKey // first-touch order

	codecs map[int]*CodecCounters // per-rank compression counters
	dedup  map[int]*DedupCounters // per-rank content-addressed store counters

	durs map[string][]float64 // op -> per-call virtual durations, for percentiles

	fsInfo FSInfo        // run-level file-system geometry, see SetFSInfo
	hints  []HintsRecord // per-file MPI-IO hints, first-open order
}

type counterKey struct {
	rank int
	file string
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{
		serverIdx: make(map[string]int),
		counters:  make(map[counterKey]*FileCounters),
		durs:      make(map[string][]float64),
	}
}

// procTrace is the per-rank trace state. Only the owning process goroutine
// touches it while the simulation runs (the engine resumes one process at a
// time), so it is lock-free.
type procTrace struct {
	t     *Tracer
	rank  int
	spans []Span
	stack []int     // open span indices, innermost last
	free  []*Active // recycled span handles; see Begin/End
}

// add appends sp to the rank's spans under the innermost open span — rank,
// parent and depth are taken from the open stack — and returns its index. It
// opens nothing. Begin records through it, and so does the pfs tap's sink,
// which adds a call's span finished, after the call: a rank's spans are
// stored in begin order, and between the begin and the end of a pfs call
// nothing on that rank opens or closes a span (no code below the tap calls
// Begin), so the finished span lands at the index, under the parent and at
// the depth a Begin before the call would have given it.
func (h *procTrace) add(sp Span) int {
	sp.Rank, sp.Parent, sp.Depth = h.rank, -1, len(h.stack)
	if n := len(h.stack); n > 0 {
		sp.Parent = h.stack[n-1]
	}
	h.spans = append(h.spans, sp)
	return len(h.spans) - 1
}

// Attach registers rank's Proc with the tracer. Every span opened by p
// after this call is recorded under the given rank.
func (t *Tracer) Attach(p *sim.Proc, rank int) {
	h := &procTrace{t: t, rank: rank}
	t.mu.Lock()
	for len(t.ranks) <= rank {
		t.ranks = append(t.ranks, nil)
	}
	t.ranks[rank] = h
	t.mu.Unlock()
	p.SetTrace(h)
}

// Active is an open span handle. The zero of *Active (nil) is a valid
// no-op handle: every method short-circuits, so instrumentation sites pay
// only a nil check when no tracer is attached.
type Active struct {
	h   *procTrace
	p   *sim.Proc
	idx int
}

// Begin opens a span at p's current virtual time. It returns nil (a no-op
// handle) when p has no tracer attached. Spans must be closed in LIFO
// order; End panics otherwise.
func Begin(p *sim.Proc, layer Layer, name string) *Active {
	h, _ := p.Trace().(*procTrace)
	if h == nil {
		return nil
	}
	idx := h.add(Span{Layer: layer, Name: name, Start: p.Now(), End: p.Now()})
	h.stack = append(h.stack, idx)
	// Handles are recycled through a per-rank free list: traced hot paths
	// open millions of spans, and each handle would otherwise escape to the
	// heap. A handle is dead once End returns it here; the strict-nesting
	// panic in End catches most use-after-End mistakes.
	if n := len(h.free); n > 0 {
		a := h.free[n-1]
		h.free = h.free[:n-1]
		*a = Active{h: h, p: p, idx: idx}
		return a
	}
	return &Active{h: h, p: p, idx: idx}
}

// Bytes adds n to the span's byte count (no-op on a nil handle).
func (a *Active) Bytes(n int64) *Active {
	if a == nil {
		return nil
	}
	a.h.spans[a.idx].Bytes += n
	return a
}

// Attr annotates the span with a key/value pair (no-op on a nil handle).
func (a *Active) Attr(key, value string) *Active {
	if a == nil {
		return nil
	}
	sp := &a.h.spans[a.idx]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Value: value})
	return a
}

// End closes the span at the process's current virtual time. It panics if
// this span is not the innermost open span on its rank — spans nest
// strictly, mirroring call structure.
func (a *Active) End() {
	if a == nil {
		return
	}
	h := a.h
	n := len(h.stack)
	if n == 0 || h.stack[n-1] != a.idx {
		a.endOutOfOrder(recover())
	}
	h.stack = h.stack[:n-1]
	h.spans[a.idx].End = a.p.Now()
	h.free = append(h.free, a)
}

// endOutOfOrder handles an End whose span is not the innermost open one. r
// is what recover returned in End: non-nil when End is running as a deferred
// call under a panic, which skipped the Ends of the spans opened under this
// one (an exhausted *mpiio.IOError leaving a rank body, say). Those spans,
// and this one, are closed as aborted and the panic continues with its own
// value — failing here would replace it with the nesting complaint. Any
// other out-of-order End is a bug in the caller. A pfs call is never among
// the spans closed here: the tap's sink adds its span after the call has
// returned, so a panic that crosses the tap leaves no pfs span at all.
func (a *Active) endOutOfOrder(r any) {
	pos := slices.Index(a.h.stack, a.idx)
	if r == nil || pos < 0 {
		panic("obs: span End out of order (spans must nest)")
	}
	Unwind(a.p, pos)
	panic(r)
}

// Mark returns p's current span-stack depth (0 when untraced), for use
// with Unwind around code that may panic past its End calls.
func Mark(p *sim.Proc) int {
	h, _ := p.Trace().(*procTrace)
	if h == nil {
		return 0
	}
	return len(h.stack)
}

// Unwind closes every span opened after mark at p's current virtual time,
// annotating each as aborted. Recover-based fault absorption (a tolerant
// read-back swallowing an I/O error panic) skips the Ends of every span
// between the throw and the recover; without unwinding, the next regular
// End would violate the nesting invariant.
func Unwind(p *sim.Proc, mark int) {
	h, _ := p.Trace().(*procTrace)
	if h == nil {
		return
	}
	for len(h.stack) > mark {
		n := len(h.stack)
		idx := h.stack[n-1]
		h.stack = h.stack[:n-1]
		h.spans[idx].End = p.Now()
		h.spans[idx].Attrs = append(h.spans[idx].Attrs, Attr{Key: "aborted", Value: "1"})
	}
}

// SpansByRank returns the recorder's own per-rank span slices, indexed by
// rank (nil for a rank never attached), each in span begin order — the
// forest without the copy Spans makes. The views are read-only and valid only
// once the engine has stopped: while it runs, End writes into these slices
// and Begin may move them.
func (t *Tracer) SpansByRank() [][]Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([][]Span, len(t.ranks))
	for r, h := range t.ranks {
		if h != nil {
			out[r] = h.spans
		}
	}
	return out
}

// Spans returns a copy of every recorded span, ordered by rank and then by
// span begin order within the rank. The order — and every field — is
// deterministic across runs.
func (t *Tracer) Spans() []Span {
	byRank := t.SpansByRank()
	n := 0
	for _, rs := range byRank {
		n += len(rs)
	}
	out := make([]Span, 0, n)
	for _, rs := range byRank {
		out = append(out, rs...)
	}
	return out
}

// NumRanks returns the number of rank slots attached (highest rank + 1).
func (t *Tracer) NumRanks() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ranks)
}

// ObserveServe implements sim.ServeObserver: it records one queueing event
// per server request, keyed by the server's diagnostic name.
func (t *Tracer) ObserveServe(s *sim.Server, arrive, start, end float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.serverIdx[s.Name()]
	if !ok {
		i = len(t.serverNames)
		t.serverIdx[s.Name()] = i
		t.serverNames = append(t.serverNames, s.Name())
		t.serves = append(t.serves, nil)
	}
	t.serves[i] = append(t.serves[i], ServeEvent{Arrive: arrive, Start: start, End: end})
}

// Servers returns a copy of the observed server names (first-observation
// order) and of their per-server request streams.
func (t *Tracer) Servers() ([]string, [][]ServeEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, len(t.serverNames))
	copy(names, t.serverNames)
	events := make([][]ServeEvent, len(t.serves))
	for i, evs := range t.serves {
		events[i] = append([]ServeEvent(nil), evs...)
	}
	return names, events
}

// ServerStreams returns what Servers returns without the copy: the
// recorder's own name list and request streams. Like SpansByRank, the views
// are read-only and valid only once the engine has stopped — ObserveServe
// appends to them while it runs.
func (t *Tracer) ServerStreams() ([]string, [][]ServeEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.serverNames, t.serves
}

// recordDur appends one per-call duration for percentile computation.
func (t *Tracer) recordDur(op string, d float64) {
	t.mu.Lock()
	t.durs[op] = append(t.durs[op], d)
	t.mu.Unlock()
}
