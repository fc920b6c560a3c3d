// Package iotrace provides Pablo-style I/O characterization — the kind of
// instrumentation the paper's analysis was built on (its reference [20],
// "Analysis of I/O Activity of the ENZO Code", used the Pablo toolkit).
// It is a view of the obs tracer's call log (obs.Tracer.Calls: one record per
// file-system call — operation, offset, request size, virtual start/end time,
// calling node) and produces the summaries an I/O study needs: request-size
// histograms, per-operation totals, bandwidth, and inter-arrival gaps that
// reveal sequential vs strided access.
package iotrace

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/obs"
)

// opOrder is the order the characterization lists operations in.
var opOrder = []string{"read", "write", "create", "open", "close"}

func isData(op string) bool { return op == "read" || op == "write" }

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

// Summary is the full characterization of a call log.
type Summary struct {
	PerOp map[string]*OpStats
	// SizeHistogram buckets request sizes by power of two: bucket i holds
	// requests with 2^i <= bytes < 2^(i+1); bucket 0 also holds 0-byte
	// and 1-byte requests.
	SizeHistogram map[int]int64
	// Span is the virtual-time window [first start, last end].
	Span [2]float64
	// Files touched.
	Files int
}

// Summarize computes the characterization. A failed call counts with its
// duration and moves no bytes.
func Summarize(calls []obs.CallRecord) Summary {
	s := Summary{PerOp: make(map[string]*OpStats), SizeHistogram: make(map[int]int64)}
	lastEnd := make(map[string]int64) // file -> previous extent end
	files := map[string]bool{}
	durs := make(map[string][]float64)
	for i, ev := range calls {
		st := s.PerOp[ev.Op]
		if st == nil {
			st = &OpStats{MinBytes: math.MaxInt64}
			s.PerOp[ev.Op] = st
		}
		n := ev.Moved()
		durs[ev.Op] = append(durs[ev.Op], ev.End-ev.Start)
		st.Count++
		st.Bytes += n
		st.Seconds += ev.End - ev.Start
		if n < st.MinBytes {
			st.MinBytes = n
		}
		if n > st.MaxBytes {
			st.MaxBytes = n
		}
		if isData(ev.Op) {
			if end, ok := lastEnd[ev.File]; ok && end == ev.Offset {
				st.Sequential++
			}
			lastEnd[ev.File] = ev.Offset + n
			s.SizeHistogram[obs.SizeBucket(n)]++
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
func FileOverlap(calls []obs.CallRecord) []FileOverlapStats {
	type key struct {
		file string
		node int
	}
	agg := make(map[string]*FileOverlapStats)
	pending := make(map[key][][2]float64)
	var names []string
	for _, ev := range calls {
		st, ok := agg[ev.File]
		if !ok {
			st = &FileOverlapStats{File: ev.File}
			agg[ev.File] = st
			names = append(names, ev.File)
		}
		st.Exposed += ev.End - ev.Start
		if ev.Hidden() > 0 {
			k := key{ev.File, ev.Node}
			pending[k] = append(pending[k], [2]float64{ev.End, ev.Done})
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

// Report writes a human-readable characterization of calls, in the style of
// the Pablo I/O analysis reports, with the per-file compression tallies.
func Report(w io.Writer, calls []obs.CallRecord, codec []obs.CodecFileStats) {
	s := Summarize(calls)
	fmt.Fprintf(w, "I/O characterization: %d files, window %.3fs..%.3fs\n",
		s.Files, s.Span[0], s.Span[1])
	ops := slices.Collect(maps.Keys(s.PerOp))
	slices.SortFunc(ops, func(a, b string) int {
		return cmp.Compare(slices.Index(opOrder, a), slices.Index(opOrder, b))
	})
	for _, op := range ops {
		st := s.PerOp[op]
		fmt.Fprintf(w, "%-7s calls=%-7d bytes=%-12d", op, st.Count, st.Bytes)
		if isData(op) && st.Count > 0 {
			fmt.Fprintf(w, " min=%-8d max=%-10d seq=%5.1f%% bw=%.2f MB/s p50=%.2gs p95=%.2gs p99=%.2gs",
				st.MinBytes, st.MaxBytes,
				100*float64(st.Sequential)/float64(st.Count),
				st.Bandwidth()/1e6, st.P50, st.P95, st.P99)
		}
		fmt.Fprintln(w)
	}
	if fo := FileOverlap(calls); len(fo) > 0 {
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
	if len(codec) > 0 {
		fmt.Fprintln(w, "compression (logical vs physical bytes per file):")
		for _, c := range codec {
			fmt.Fprintf(w, "  %-16s write %12d -> %-12d (%.2fx)  read %12d -> %-12d (%.2fx)\n",
				c.File,
				c.LogicalWritten, c.PhysicalWritten, obs.Ratio(c.LogicalWritten, c.PhysicalWritten),
				c.LogicalRead, c.PhysicalRead, obs.Ratio(c.LogicalRead, c.PhysicalRead))
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
