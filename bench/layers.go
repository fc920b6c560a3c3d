package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/enzo"
)

// span is one interval of the benchmark's own trace: workload → repetition
// → sub-run → call into a layer, or probes → one probe. Times are host
// nanoseconds since the recorder started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the end-to-end pass runs with tracing off.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // ids of the open spans, innermost last
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, StartNS: time.Since(r.t0).Nanoseconds()})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].EndNS = time.Since(r.t0).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return notMeasured
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return notMeasured
}

// layers is the traced pass: a cold repetition as the end-to-end pass runs
// it, a warm one with every sub-run plain (the host timings and the plain
// Results), one with every sub-run traced, then the probes, all under the
// span recorder. The CPU profile covers the warm repetition that has the shape the
// end-to-end pass times: the traced one on a workload that traces its own
// sub-runs, the plain one elsewhere — so the shares explain wall_s.
func (w workload) layers(o options) (workloadReport, *recorder) {
	ck := newChecker()
	rec := newRecorder()
	root := rec.begin("workload:" + w.name)

	tracesItself := false
	for _, s := range w.subs {
		tracesItself = tracesItself || s.traced
	}
	repeat := func(name string, mode traceMode, profile bool) (repetition, map[string]float64) {
		var prof *cpuProfile
		if profile {
			prof = startProfile()
		}
		id := rec.begin("repetition:" + name)
		r := w.repeat(ck, rec, mode)
		rec.end(id)
		return r, prof.stop()
	}
	repeat("cold", asTimed, false)
	plain, shares := repeat("plain", allPlain, !tracesItself)
	traced, tracedShares := repeat("traced", allTraced, tracesItself)
	if tracesItself {
		shares = tracedShares
	}

	rep := newWorkloadReport(w, ck)
	w.resultMetrics(&rep, plain)
	w.tracedMetrics(&rep, plain, traced)
	for _, layer := range cpuShareLayers {
		v := float64(notMeasured)
		if shares != nil {
			v = shares[layer]
		}
		rep.setOne(layer+".cpu_share", v)
	}

	id := rec.begin("probes")
	runProbes(&rep, rec, o)
	rec.end(id)
	rec.end(root)

	rep.setOne("sim.dispatch_share_est", ratio(rep.Metrics["sim.dispatch_ns"].Value*1e-9*float64(plain.events()), plain.wallS))
	return rep, rec
}

// resultMetrics are the per-layer numbers a plain repetition's Results and
// host clocks give.
func (w workload) resultMetrics(rep *workloadReport, plain repetition) {
	one := rep.setOne
	events := float64(plain.events())
	one("sim.events", events)
	one("sim.ns_per_event", ratio(plain.wallS*1e9, events))
	one("enzo.kb_per_event", ratio(float64(plain.allocB)/1e3, events))
	one("enzo.read_vs", plain.sum((*enzo.Result).ReadTime))
	one("enzo.write_vs", plain.sum((*enzo.Result).WriteTime))
	one("enzo.restart_vs", plain.sum((*enzo.Result).RestartTime))

	// Host wall and simulated I/O time of the sub-runs that use a given
	// library or feature; zero on a workload that has none.
	var hdf4S, hdf5S, mpiioS, casS, asyncS, hdf4IO, hdf5IO, mpiioIO, hidden float64
	var puts, hits, logical, physical, deduped int64
	for i, s := range w.subs {
		r := plain.subs[i]
		if r.res == nil {
			continue
		}
		switch {
		case s.backend == enzo.BackendHDF4:
			hdf4S, hdf4IO = hdf4S+r.wallS, hdf4IO+r.res.IOTime()
		case s.backend == enzo.BackendHDF5:
			hdf5S, hdf5IO = hdf5S+r.wallS, hdf5IO+r.res.IOTime()
		default:
			mpiioIO += r.res.IOTime()
		}
		switch {
		case s.cfg.CAStore:
			casS += r.wallS
		case s.cfg.AsyncIO:
			asyncS += r.wallS
			hidden = r.res.HiddenFraction()
		case s.backend == enzo.BackendMPIIO:
			mpiioS += r.wallS
		}
		puts, hits = puts+r.res.CASChunkPuts, hits+r.res.CASChunkHits
		logical, physical, deduped = logical+r.res.CASLogicalBytes, physical+r.res.CASPhysicalBytes, deduped+r.res.CASDedupedBytes
	}
	one("hdf4.run_s", hdf4S)
	one("hdf5.run_s", hdf5S)
	one("hdf4.io_vs", hdf4IO)
	one("hdf5.io_vs", hdf5IO)
	one("mpiio.io_vs", mpiioIO)
	one("enzo.mpiio_run_s", mpiioS)
	one("enzo.cas_run_s", casS)
	one("enzo.h5async_run_s", asyncS)
	one("enzo.hidden_write_frac", hidden)
	one("castore.chunk_puts", float64(puts))
	one("castore.chunk_hits", float64(hits))
	one("castore.physical_mb", float64(physical)/1e6)
	one("castore.dedup_ratio", ratio(float64(deduped), float64(logical)))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	one("runtime.cpu_s", plain.cpuS)
	one("runtime.peak_rss_mb", peakRSSMB())
	one("runtime.gc_cpu_frac", ms.GCCPUFraction)
	one("runtime.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
}

// ratio is a/b, and 0 when there was nothing to take a share of.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedMetrics are the simulated per-layer counts the diag reports of the
// traced repetition give, and what tracing cost the host.
func (w workload) tracedMetrics(rep *workloadReport, plain, traced repetition) {
	one := rep.setOne
	one("bench.trace_overhead", ratio(traced.wallS, plain.wallS))

	obsNames := []string{"mpi.vsec", "mpiio.vsec", "hdf5.vsec", "pfs.vsec", "compress.vsec",
		"mpiio.collective_ops", "mpiio.independent_ops", "mpiio.logical_mb",
		"pfs.requests", "pfs.small_request_ratio", "pfs.physical_mb", "pfs.server_busy_vs", "pfs.server_wait_vs",
		"obs.traced_run_s", "obs.plain_run_s", "obs.overhead_ratio", "obs.spans", "obs.serve_events",
		"obs.export_s", "obs.export_mb", "diag.snapshot_s", "diag.analyze_s", "diag.matrix_cells"}
	sums := make(map[string]float64)
	var small, requests float64
	tracedAny := false
	for i, s := range w.subs {
		r := traced.subs[i]
		if r.report == nil {
			continue
		}
		tracedAny = true
		for _, c := range r.report.Matrix {
			switch c.Layer {
			case "mpi", "mpiio", "pfs":
				sums[c.Layer+".vsec"] += c.Seconds
			case "codec":
				sums["compress.vsec"] += c.Seconds
			case "hdf":
				if s.backend == enzo.BackendHDF5 {
					sums["hdf5.vsec"] += c.Seconds
				}
			}
		}
		sums["mpiio.collective_ops"] += float64(r.report.Traffic.CollectiveOps)
		sums["mpiio.independent_ops"] += float64(r.report.Traffic.IndependentOps)
		sums["mpiio.logical_mb"] += float64(r.report.Traffic.LogicalReadBytes+r.report.Traffic.LogicalWriteBytes) / 1e6
		sums["pfs.physical_mb"] += float64(r.report.Traffic.PhysicalReadBytes+r.report.Traffic.PhysicalWriteBytes) / 1e6
		requests += float64(r.report.Sizes.Requests)
		small += float64(r.report.Sizes.SmallRequests)
		for _, srv := range r.report.Servers {
			sums["pfs.server_busy_vs"] += srv.BusySeconds
			sums["pfs.server_wait_vs"] += srv.WaitSeconds
			sums["obs.serve_events"] += float64(srv.Requests)
		}
		sums["obs.traced_run_s"] += r.wallS
		sums["obs.plain_run_s"] += plain.subs[i].wallS
		sums["obs.spans"] += float64(r.spans)
		sums["obs.export_s"] += r.exportS
		sums["obs.export_mb"] += float64(r.exportBytes) / 1e6
		sums["diag.snapshot_s"] += r.snapshotS
		sums["diag.analyze_s"] += r.analyzeS
		sums["diag.matrix_cells"] += float64(len(r.report.Matrix))
	}
	sums["pfs.requests"] = requests
	sums["pfs.small_request_ratio"] = ratio(small, requests)
	sums["obs.overhead_ratio"] = ratio(sums["obs.traced_run_s"], sums["obs.plain_run_s"])
	for _, name := range obsNames {
		if tracedAny {
			one(name, sums[name])
		} else {
			one(name, notMeasured)
		}
	}
}

// cpuProfile is a CPU profile being taken into a temporary file.
type cpuProfile struct{ f *os.File }

// startProfile begins a CPU profile; it returns nil, and attribution is
// reported as n/a, if the file or the profiler cannot be had.
func startProfile() *cpuProfile {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil
	}
	f, err := os.CreateTemp(outDir, "cpu-*.pprof")
	if err != nil {
		return nil
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil
	}
	return &cpuProfile{f}
}

// stop ends the profile and attributes its samples to layers with
// `go tool pprof -traces`. It returns nil — never an error — when no profile
// was started, the tool is missing or its output is not understood.
func (p *cpuProfile) stop() map[string]float64 {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	defer os.Remove(p.f.Name())
	if err := p.f.Close(); err != nil {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", "-unit=ms", exe, p.f.Name()).Output()
	if err != nil {
		return nil
	}
	return bucketTraces(out)
}

// bucketTraces reads `pprof -traces -unit=ms` output — one block per
// distinct stack, "<n>ms <leaf>" then the callers, leaf first — and returns
// each layer's share of the samples. A sample belongs to the innermost
// frame that is in a package under repro/internal/, so the memmove, memclr
// and malloc a layer calls count toward that layer; a stack with no such
// frame (GC workers, the scheduler between goroutines) is "runtime".
func bucketTraces(out []byte) map[string]float64 {
	const prefix = "repro/internal/"
	ms := make(map[string]float64)
	total := 0.0
	blocks := strings.Split(string(out), "-----------+-------------------------------------------------------\n")
	for _, block := range blocks[1:] {
		value, frames, _ := strings.Cut(strings.TrimSpace(block), " ")
		v, err := strconv.ParseFloat(strings.TrimSuffix(value, "ms"), 64)
		if err != nil {
			continue
		}
		layer := "runtime"
		if i := strings.Index(frames, prefix); i >= 0 {
			layer = frames[i+len(prefix):]
			if j := strings.IndexAny(layer, "./"); j >= 0 {
				layer = layer[:j]
			}
		}
		ms[layer] += v
		total += v
	}
	if total == 0 {
		return nil
	}
	for layer := range ms {
		ms[layer] /= total
	}
	return ms
}
