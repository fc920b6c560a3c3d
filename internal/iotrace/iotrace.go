// Package iotrace provides Pablo-style I/O characterization — the kind of
// instrumentation the paper's analysis was built on (its reference [20],
// "Analysis of I/O Activity of the ENZO Code", used the Pablo toolkit).
// A Recorder collects one event per file-system call (operation, offset,
// request size, virtual start/end time, calling node) as a sink of the pfs
// tap (Wrap), and produces the summaries an I/O study needs: request-size histograms, per-operation totals, bandwidth,
// and inter-arrival gaps that reveal sequential vs strided access.
package iotrace

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/pfs"
)

// Op is the traced operation kind.
type Op int

// Traced operations.
const (
	OpRead Op = iota
	OpWrite
	OpCreate
	OpOpen
	OpClose
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCreate:
		return "create"
	case OpOpen:
		return "open"
	case OpClose:
		return "close"
	}
	return "unknown"
}

// Event is one traced file-system call.
type Event struct {
	Op     Op
	File   string
	Node   int
	Offset int64
	Bytes  int64
	Start  float64 // virtual seconds
	End    float64 // when the caller's clock resumed (issue end for async)
	// Completion is the virtual time the operation finished on the device.
	// For synchronous calls it equals End; for deferred (write-behind,
	// read-ahead) calls it is later, and Completion-End is the per-call
	// hidden time.
	Completion float64
}

// Exposed returns the virtual time the caller's clock spent in the call.
func (ev Event) Exposed() float64 { return ev.End - ev.Start }

// Hidden returns the device time past the caller's return — zero for every
// synchronous call.
func (ev Event) Hidden() float64 {
	if h := ev.Completion - ev.End; h > 0 {
		return h
	}
	return 0
}

// CodecFileStats tallies transparently compressed transfers on one file:
// logical bytes are the uncompressed array sizes the application moved,
// physical bytes the container bytes that actually hit the file system.
type CodecFileStats struct {
	File            string
	LogicalRead     int64
	PhysicalRead    int64
	LogicalWritten  int64
	PhysicalWritten int64
}

// Ratio returns logical/physical for the given direction sums, or 0 when
// no physical bytes moved (an all-raw or untouched file).
func Ratio(logical, physical int64) float64 { return obs.Ratio(logical, physical) }

// Recorder accumulates events. It is safe for use from the (serialized)
// simulation and from tests.
type Recorder struct {
	mu         sync.Mutex
	events     []Event
	codec      map[string]*CodecFileStats
	codecOrder []string
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one event. A zero Completion (every synchronous call
// site) is normalized to End, so Hidden() is 0 unless a deferred request
// recorded a later device completion.
func (r *Recorder) Record(ev Event) {
	if ev.Completion < ev.End {
		ev.Completion = ev.End
	}
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Events returns a copy of the trace in record order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Reset clears the trace.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = nil
	r.codec = nil
	r.codecOrder = nil
	r.mu.Unlock()
}

// RecordCodecBytes tallies one compressed transfer (see pfs.CodecReporter).
func (r *Recorder) RecordCodecBytes(file string, write bool, logical, physical int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.codec == nil {
		r.codec = make(map[string]*CodecFileStats)
	}
	cs, ok := r.codec[file]
	if !ok {
		cs = &CodecFileStats{File: file}
		r.codec[file] = cs
		r.codecOrder = append(r.codecOrder, file)
	}
	if write {
		cs.LogicalWritten += logical
		cs.PhysicalWritten += physical
	} else {
		cs.LogicalRead += logical
		cs.PhysicalRead += physical
	}
}

// CodecStats returns the per-file compression tallies in first-touch order
// (empty when no compressed transfers were recorded).
func (r *Recorder) CodecStats() []CodecFileStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CodecFileStats, 0, len(r.codecOrder))
	for _, f := range r.codecOrder {
		out = append(out, *r.codec[f])
	}
	return out
}

// OpStats aggregates one operation kind.
type OpStats struct {
	Count      int64
	Bytes      int64
	Seconds    float64 // summed per-call durations
	MinBytes   int64
	MaxBytes   int64
	Sequential int64 // calls continuing the previous call's extent on the same file

	// Per-call latency percentiles (nearest-rank over the call durations).
	P50, P95, P99 float64
}

// Bandwidth returns bytes/second over the summed call durations.
func (s OpStats) Bandwidth() float64 {
	if s.Seconds <= 0 {
		return 0
	}
	return float64(s.Bytes) / s.Seconds
}

// Summary is the full characterization of a trace.
type Summary struct {
	PerOp map[Op]*OpStats
	// SizeHistogram buckets request sizes by power of two: bucket i holds
	// requests with 2^i <= bytes < 2^(i+1); bucket 0 also holds 0-byte
	// and 1-byte requests.
	SizeHistogram map[int]int64
	// Span is the virtual-time window [first start, last end].
	Span [2]float64
	// Files touched.
	Files int
}

// Summarize computes the characterization.
func (r *Recorder) Summarize() Summary {
	evs := r.Events()
	s := Summary{PerOp: make(map[Op]*OpStats), SizeHistogram: make(map[int]int64)}
	lastEnd := make(map[string]int64) // file -> previous extent end
	files := map[string]bool{}
	durs := make(map[Op][]float64)
	for i, ev := range evs {
		st := s.PerOp[ev.Op]
		if st == nil {
			st = &OpStats{MinBytes: math.MaxInt64}
			s.PerOp[ev.Op] = st
		}
		durs[ev.Op] = append(durs[ev.Op], ev.End-ev.Start)
		st.Count++
		st.Bytes += ev.Bytes
		st.Seconds += ev.End - ev.Start
		if ev.Bytes < st.MinBytes {
			st.MinBytes = ev.Bytes
		}
		if ev.Bytes > st.MaxBytes {
			st.MaxBytes = ev.Bytes
		}
		if ev.Op == OpRead || ev.Op == OpWrite {
			if end, ok := lastEnd[ev.File]; ok && end == ev.Offset {
				st.Sequential++
			}
			lastEnd[ev.File] = ev.Offset + ev.Bytes
			s.SizeHistogram[obs.SizeBucket(ev.Bytes)]++
		}
		files[ev.File] = true
		if i == 0 || ev.Start < s.Span[0] {
			s.Span[0] = ev.Start
		}
		if ev.End > s.Span[1] {
			s.Span[1] = ev.End
		}
	}
	s.Files = len(files)
	for op, d := range durs {
		st := s.PerOp[op]
		st.P50 = obs.Percentile(d, 0.50)
		st.P95 = obs.Percentile(d, 0.95)
		st.P99 = obs.Percentile(d, 0.99)
	}
	return s
}

// FileOverlapStats is the per-file split between exposed I/O time (what
// the calling ranks' clocks paid inside calls, summed across ranks) and
// hidden time (how long deferred device work stayed outstanding past
// issue, per rank as a union of the [issue end, completion] windows so
// back-to-back deferred calls draining together are not double-counted,
// then summed across ranks — 0 on every synchronous path).
type FileOverlapStats struct {
	File    string
	Exposed float64
	Hidden  float64
}

// FileOverlap aggregates exposed vs hidden virtual time per file, in file
// name order.
func (r *Recorder) FileOverlap() []FileOverlapStats {
	type key struct {
		file string
		node int
	}
	agg := make(map[string]*FileOverlapStats)
	pending := make(map[key][][2]float64)
	var names []string
	for _, ev := range r.Events() {
		st, ok := agg[ev.File]
		if !ok {
			st = &FileOverlapStats{File: ev.File}
			agg[ev.File] = st
			names = append(names, ev.File)
		}
		st.Exposed += ev.Exposed()
		if ev.Hidden() > 0 {
			k := key{ev.File, ev.Node}
			pending[k] = append(pending[k], [2]float64{ev.End, ev.Completion})
		}
	}
	// Sum per-node hidden time in (file, node) order: map order would make
	// the float depend on the iteration order of this call.
	keys := make([]key, 0, len(pending))
	for k := range pending {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b key) int {
		return cmp.Or(strings.Compare(a.file, b.file), cmp.Compare(a.node, b.node))
	})
	for _, k := range keys {
		agg[k.file].Hidden += unionLen(pending[k])
	}
	sort.Strings(names)
	out := make([]FileOverlapStats, 0, len(names))
	for _, n := range names {
		out = append(out, *agg[n])
	}
	return out
}

// unionLen returns the total length covered by the union of the intervals.
func unionLen(ivs [][2]float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total float64
	end := math.Inf(-1)
	for _, iv := range ivs {
		if iv[1] <= end {
			continue
		}
		start := iv[0]
		if start < end {
			start = end
		}
		total += iv[1] - start
		end = iv[1]
	}
	return total
}

// Report writes a human-readable characterization, in the style of the
// Pablo I/O analysis reports.
func (r *Recorder) Report(w io.Writer) {
	s := r.Summarize()
	fmt.Fprintf(w, "I/O characterization: %d files, window %.3fs..%.3fs\n",
		s.Files, s.Span[0], s.Span[1])
	ops := make([]Op, 0, len(s.PerOp))
	for op := range s.PerOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		st := s.PerOp[op]
		fmt.Fprintf(w, "%-7s calls=%-7d bytes=%-12d", op, st.Count, st.Bytes)
		if (op == OpRead || op == OpWrite) && st.Count > 0 {
			fmt.Fprintf(w, " min=%-8d max=%-10d seq=%5.1f%% bw=%.2f MB/s p50=%.2gs p95=%.2gs p99=%.2gs",
				st.MinBytes, st.MaxBytes,
				100*float64(st.Sequential)/float64(st.Count),
				st.Bandwidth()/1e6, st.P50, st.P95, st.P99)
		}
		fmt.Fprintln(w)
	}
	if fo := r.FileOverlap(); len(fo) > 0 {
		fmt.Fprintln(w, "per-file exposed vs hidden I/O time (hidden = write-behind and read-ahead work outstanding past issue):")
		for _, o := range fo {
			pct := 0.0
			if tot := o.Exposed + o.Hidden; tot > 0 {
				pct = 100 * o.Hidden / tot
			}
			fmt.Fprintf(w, "  %-20s exposed %10.6fs  hidden %10.6fs  (%5.1f%% hidden)\n",
				o.File, o.Exposed, o.Hidden, pct)
		}
	}
	if cs := r.CodecStats(); len(cs) > 0 {
		fmt.Fprintln(w, "compression (logical vs physical bytes per file):")
		for _, c := range cs {
			fmt.Fprintf(w, "  %-16s write %12d -> %-12d (%.2fx)  read %12d -> %-12d (%.2fx)\n",
				c.File,
				c.LogicalWritten, c.PhysicalWritten, Ratio(c.LogicalWritten, c.PhysicalWritten),
				c.LogicalRead, c.PhysicalRead, Ratio(c.LogicalRead, c.PhysicalRead))
		}
	}
	if len(s.SizeHistogram) > 0 {
		fmt.Fprintln(w, "request size histogram (log2 buckets):")
		buckets := make([]int, 0, len(s.SizeHistogram))
		for b := range s.SizeHistogram {
			buckets = append(buckets, b)
		}
		sort.Ints(buckets)
		var maxCount int64
		for _, b := range buckets {
			if s.SizeHistogram[b] > maxCount {
				maxCount = s.SizeHistogram[b]
			}
		}
		for _, b := range buckets {
			n := s.SizeHistogram[b]
			bar := int(40 * n / maxCount)
			fmt.Fprintf(w, "  %8s-%-8s %7d ", obs.SizeLabel(b), obs.SizeLabel(b+1), n)
			for i := 0; i < bar; i++ {
				fmt.Fprint(w, "#")
			}
			fmt.Fprintln(w)
		}
	}
}

// Wrap returns a pfs.FileSystem that records every call into rec — the pfs
// tap with the recorder as its sink — and receives the application's codec
// accounting for it. Timing is unchanged: the tap observes the virtual clock
// around the delegate call and passes every request down in its own mode.
func Wrap(fs pfs.FileSystem, rec *Recorder) pfs.FileSystem {
	return tracedFS{TapFS: pfs.Tap(fs, rec.observe), rec: rec}
}

// tracedFS embeds the tap's concrete type, not pfs.FileSystem: Unwrap and
// CreatePlaced must stay visible to the capability walk.
type tracedFS struct {
	*pfs.TapFS
	rec *Recorder
}

// RecordCodecBytes implements pfs.CodecReporter: the application layer
// reports every compressed array transfer so the characterization can show
// logical vs physical bytes and the achieved compression ratio per file.
func (t tracedFS) RecordCodecBytes(file string, write bool, logical, physical int64) {
	t.rec.RecordCodecBytes(file, write, logical, physical)
}

var opByName = map[string]Op{"read": OpRead, "write": OpWrite, "create": OpCreate, "open": OpOpen, "close": OpClose}

// observe is the recorder's sink on the pfs tap: one event per call, failed
// creates and opens included. Start..End is the interval the caller's clock
// spent in the call — the issue interval of a Behind request, whose device
// completion is recorded separately so the report can attribute exposed vs
// hidden time per file. A request abandoned at its deadline moved no data and
// is recorded with zero bytes; its wait still shows as the event duration.
func (r *Recorder) observe(c pfs.Call) {
	ev := Event{Op: opByName[c.Op], File: c.File, Node: c.Client.Node, Offset: c.Req.Off,
		Bytes: c.Req.Len(), Start: c.Start, End: c.Now, Completion: c.Done}
	if c.Err != nil {
		ev.Bytes, ev.Completion = 0, 0
	}
	r.Record(ev)
}
