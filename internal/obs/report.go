package obs

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"sort"
)

// LayerStat aggregates all spans sharing a (layer, name) pair across ranks.
type LayerStat struct {
	Layer Layer
	Name  string
	Count int64
	Total float64 // summed span durations
	// Exclusive is Total minus time covered by child spans — the virtual
	// time actually attributable to this layer rather than the layers it
	// called into. Summing Exclusive over all stats reproduces total
	// instrumented time exactly once.
	Exclusive float64
	Bytes     int64
}

// LayerStats aggregates spans by (layer, name), ordered by layer then name.
func (t *Tracer) LayerStats() []LayerStat {
	agg := make(map[Layer]map[string]*LayerStat)
	for _, spans := range t.SpansByRank() {
		// Exclusive time: subtract each span's duration from its parent's.
		excl := make([]float64, len(spans))
		for i := range spans {
			excl[i] = spans[i].Dur()
		}
		for i := range spans {
			if p := spans[i].Parent; p >= 0 {
				excl[p] -= spans[i].Dur()
			}
		}
		for i := range spans {
			sp := &spans[i]
			byName := agg[sp.Layer]
			if byName == nil {
				byName = make(map[string]*LayerStat)
				agg[sp.Layer] = byName
			}
			st := byName[sp.Name]
			if st == nil {
				st = &LayerStat{Layer: sp.Layer, Name: sp.Name}
				byName[sp.Name] = st
			}
			st.Count++
			st.Total += sp.Dur()
			st.Exclusive += excl[i]
			st.Bytes += sp.Bytes
		}
	}
	var out []LayerStat
	for layer := Layer(0); layer < numLayers; layer++ {
		byName := agg[layer]
		names := make([]string, 0, len(byName))
		for n := range byName {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			out = append(out, *byName[n])
		}
	}
	return out
}

// Percentile returns the q-quantile (0 < q <= 1) of durs by the
// nearest-rank method. It returns 0 for an empty slice. durs need not be
// sorted.
func Percentile(durs []float64, q float64) float64 {
	sorted := slices.Clone(durs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, q)
}

// percentileSorted is Percentile over samples already in ascending order.
func percentileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// OpLatency summarizes the per-call latency distribution of one pfs
// operation kind.
type OpLatency struct {
	Op            string
	Count         int64
	P50, P95, P99 float64
}

// OpLatencies returns latency percentiles per pfs operation, ordered by
// operation name. The samples are the call log's successful calls.
func (t *Tracer) OpLatencies() []OpLatency {
	durs := make(map[string][]float64)
	for _, c := range t.Calls() {
		if !c.Failed {
			durs[c.Op] = append(durs[c.Op], c.End-c.Start)
		}
	}
	ops := slices.Sorted(maps.Keys(durs))
	out := make([]OpLatency, len(ops))
	for i, op := range ops {
		d := durs[op]
		sort.Float64s(d)
		out[i] = OpLatency{
			Op:    op,
			Count: int64(len(d)),
			P50:   percentileSorted(d, 0.50),
			P95:   percentileSorted(d, 0.95),
			P99:   percentileSorted(d, 0.99),
		}
	}
	return out
}

// ServerStat summarizes one sim.Server's observed load.
type ServerStat struct {
	Name     string
	Requests int64
	Busy     float64
	WaitSum  float64
	WaitMax  float64
	Delayed  int64
}

// ServerStats aggregates the observed serve events per server, in
// first-observation order. It reads the recorder's own streams (see
// ServerStreams): call it once the engine has stopped.
func (t *Tracer) ServerStats() []ServerStat {
	names, events := t.ServerStreams()
	out := make([]ServerStat, len(names))
	for i, name := range names {
		st := ServerStat{Name: name}
		for _, ev := range events[i] {
			st.Requests++
			st.Busy += ev.End - ev.Start
			if w := ev.Start - ev.Arrive; w > 0 {
				st.WaitSum += w
				st.Delayed++
				if w > st.WaitMax {
					st.WaitMax = w
				}
			}
		}
		out[i] = st
	}
	return out
}

func fmtSecs(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.3fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.3fms", s*1e3)
	default:
		return fmt.Sprintf("%.1fus", s*1e6)
	}
}

// WriteReport writes the full human-readable run report: layer time
// attribution, span tables, per-op latency percentiles, Darshan-style
// counter records and server queueing stats. makespan is the run's virtual
// makespan (Engine.MaxTime), used for utilization and percentages; pass 0
// if unknown.
func (t *Tracer) WriteReport(w io.Writer, makespan float64) {
	nranks := t.NumRanks()
	fmt.Fprintf(w, "== run ==\nranks=%d makespan=%s\n", nranks, fmtSecs(makespan))

	stats := t.LayerStats()
	var instrumented float64
	totals := make(map[Layer]float64)
	for _, st := range stats {
		totals[st.Layer] += st.Exclusive
		instrumented += st.Exclusive
	}

	fmt.Fprintf(w, "\n== virtual time by layer (exclusive, all ranks) ==\n")
	for layer := Layer(0); layer < numLayers; layer++ {
		tot, ok := totals[layer]
		if !ok {
			continue
		}
		pct := 0.0
		if instrumented > 0 {
			pct = 100 * tot / instrumented
		}
		fmt.Fprintf(w, "%-6s %12s  %5.1f%%\n", layer, fmtSecs(tot), pct)
	}

	fmt.Fprintf(w, "\n== spans by layer/operation ==\n")
	fmt.Fprintf(w, "%-6s %-22s %8s %12s %12s %14s\n", "layer", "name", "count", "total", "exclusive", "bytes")
	for _, st := range stats {
		fmt.Fprintf(w, "%-6s %-22s %8d %12s %12s %14d\n",
			st.Layer, st.Name, st.Count, fmtSecs(st.Total), fmtSecs(st.Exclusive), st.Bytes)
	}

	if lats := t.OpLatencies(); len(lats) > 0 {
		fmt.Fprintf(w, "\n== pfs per-op latency ==\n")
		fmt.Fprintf(w, "%-8s %8s %12s %12s %12s\n", "op", "count", "p50", "p95", "p99")
		for _, l := range lats {
			fmt.Fprintf(w, "%-8s %8d %12s %12s %12s\n", l.Op, l.Count, fmtSecs(l.P50), fmtSecs(l.P95), fmtSecs(l.P99))
		}
	}

	if cs := t.Counters(); len(cs) > 0 {
		fmt.Fprintf(w, "\n== per-rank per-file counters (Darshan-style) ==\n")
		fmt.Fprintf(w, "%4s %-28s %6s %6s %12s %12s %5s %5s %10s %10s %10s\n",
			"rank", "file", "reads", "writes", "bytes_rd", "bytes_wr", "seq%", "con%", "meta", "read", "write")
		// Stable output: sort by (rank, file).
		sorted := append([]*FileCounters(nil), cs...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].Rank != sorted[j].Rank {
				return sorted[i].Rank < sorted[j].Rank
			}
			return sorted[i].File < sorted[j].File
		})
		for _, fc := range sorted {
			seqPct, conPct := 0.0, 0.0
			if n := fc.Reads + fc.Writes; n > 0 {
				seqPct = 100 * float64(fc.SeqReads+fc.SeqWrites) / float64(n)
				conPct = 100 * float64(fc.ConsecReads+fc.ConsecWrites) / float64(n)
			}
			fmt.Fprintf(w, "%4d %-28s %6d %6d %12d %12d %5.1f %5.1f %10s %10s %10s\n",
				fc.Rank, fc.File, fc.Reads, fc.Writes, fc.BytesRead, fc.BytesWritten,
				seqPct, conPct, fmtSecs(fc.MetaTime), fmtSecs(fc.ReadTime), fmtSecs(fc.WriteTime))
		}

		// Aggregate size histogram across all records.
		var hist [NumSizeBuckets]int64
		var maxCount int64
		for _, fc := range cs {
			for b, n := range fc.SizeHist {
				hist[b] += n
				if hist[b] > maxCount {
					maxCount = hist[b]
				}
			}
		}
		if maxCount > 0 {
			fmt.Fprintf(w, "\n== request size histogram (log2 buckets, all ranks) ==\n")
			for b, n := range hist {
				if n == 0 {
					continue
				}
				bar := int(40 * n / maxCount)
				fmt.Fprintf(w, "  %8s-%-8s %8d ", SizeLabel(b), SizeLabel(b+1), n)
				for i := 0; i < bar; i++ {
					fmt.Fprint(w, "#")
				}
				fmt.Fprintln(w)
			}
		}
	}

	if cs := t.CodecStats(); len(cs) > 0 {
		fmt.Fprintf(w, "\n== compression (logical vs physical bytes) ==\n")
		fmt.Fprintf(w, "%4s %6s %12s %12s %6s %10s %6s %12s %12s %6s %10s\n",
			"rank", "comps", "logical", "stored", "ratio", "cpu",
			"decs", "logical", "stored", "ratio", "cpu")
		var tot CodecCounters
		for _, cc := range cs {
			fmt.Fprintf(w, "%4d %6d %12d %12d %6.2f %10s %6d %12d %12d %6.2f %10s\n",
				cc.Rank, cc.CompressCalls, cc.CompressLogical, cc.CompressStored,
				Ratio(cc.CompressLogical, cc.CompressStored), fmtSecs(cc.CompressTime),
				cc.DecompressCalls, cc.DecompressLogical, cc.DecompressStored,
				Ratio(cc.DecompressLogical, cc.DecompressStored), fmtSecs(cc.DecompressTime))
			tot.CompressCalls += cc.CompressCalls
			tot.CompressLogical += cc.CompressLogical
			tot.CompressStored += cc.CompressStored
			tot.CompressTime += cc.CompressTime
			tot.DecompressCalls += cc.DecompressCalls
			tot.DecompressLogical += cc.DecompressLogical
			tot.DecompressStored += cc.DecompressStored
			tot.DecompressTime += cc.DecompressTime
		}
		fmt.Fprintf(w, "%4s %6d %12d %12d %6.2f %10s %6d %12d %12d %6.2f %10s\n",
			"all", tot.CompressCalls, tot.CompressLogical, tot.CompressStored,
			Ratio(tot.CompressLogical, tot.CompressStored), fmtSecs(tot.CompressTime),
			tot.DecompressCalls, tot.DecompressLogical, tot.DecompressStored,
			Ratio(tot.DecompressLogical, tot.DecompressStored), fmtSecs(tot.DecompressTime))
	}

	if srv := t.ServerStats(); len(srv) > 0 {
		fmt.Fprintf(w, "\n== servers ==\n")
		fmt.Fprintf(w, "%-24s %8s %12s %6s %12s %12s %8s\n", "server", "reqs", "busy", "util%", "wait_sum", "wait_max", "delayed")
		sorted := append([]ServerStat(nil), srv...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
		for _, s := range sorted {
			util := 0.0
			if makespan > 0 {
				util = 100 * s.Busy / makespan
			}
			fmt.Fprintf(w, "%-24s %8d %12s %6.1f %12s %12s %8d\n",
				s.Name, s.Requests, fmtSecs(s.Busy), util, fmtSecs(s.WaitSum), fmtSecs(s.WaitMax), s.Delayed)
		}
	}
}

// SizeLabel names the lower bound of a SizeBucket. Bucket 0 holds 0- and
// 1-byte requests, so its lower bound is 0B.
func SizeLabel(bucket int) string {
	if bucket == 0 {
		return "0B"
	}
	v := int64(1) << bucket
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%dG", v>>30)
	case v >= 1<<20:
		return fmt.Sprintf("%dM", v>>20)
	case v >= 1<<10:
		return fmt.Sprintf("%dK", v>>10)
	}
	return fmt.Sprintf("%dB", v)
}

// WriteFile creates the file at path and hands write a buffered writer on
// it. If write, the final flush or the close fails — a buffered writer keeps
// the first error of any write made through it, so a write that returns
// nothing (WriteReport) is covered too — the partial file is removed (a
// device such as /dev/null is not) and that error returned.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fi, statErr := f.Stat()
	bw := bufio.NewWriter(f)
	err = write(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil && statErr == nil && fi.Mode().IsRegular() {
		os.Remove(path) // best effort: the error that matters is err
	}
	return err
}
