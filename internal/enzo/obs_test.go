package enzo

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
)

// smallAMR64 is the AMR64 problem shrunk to test scale (the same shape the
// experiment suite uses in Quick mode).
func smallAMR64() Config {
	cfg := AMR64()
	cfg.Dims = [3]int{16, 16, 16}
	cfg.NParticles = 16 * 16 * 16 / 2
	return cfg
}

// TestTracedRunObservability runs one traced experiment end-to-end and
// validates everything the observability layer promises: a well-formed
// span tree (children nested inside parents, same rank), virtual time
// attributed to every layer of the stack including the two-phase
// exchange/io split, per-rank counters, and a structurally valid Chrome
// trace-event JSON export.
func TestTracedRunObservability(t *testing.T) {
	tr := obs.NewTracer()
	res, err := Run(RunSpec{Machine: machine.ChibaCity(), FS: "pvfs", Procs: 4, Config: smallAMR64(), Backend: BackendMPIIO, Tracer: tr})
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if !res.Verified {
		t.Fatalf("traced run failed verification")
	}

	// --- span tree ---
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	// Per-rank span indices restart at 0; walk rank by rank.
	byRank := make(map[int][]obs.Span)
	for _, sp := range spans {
		byRank[sp.Rank] = append(byRank[sp.Rank], sp)
	}
	if len(byRank) != 4 {
		t.Fatalf("spans cover %d ranks, want 4", len(byRank))
	}
	for rank, rs := range byRank {
		for i, sp := range rs {
			if sp.End < sp.Start {
				t.Errorf("rank %d span %d (%s) ends before it starts", rank, i, sp.Name)
			}
			if sp.Parent < 0 {
				continue
			}
			if sp.Parent >= len(rs) {
				t.Fatalf("rank %d span %d parent %d out of range", rank, i, sp.Parent)
			}
			pa := rs[sp.Parent]
			if pa.Rank != sp.Rank {
				t.Errorf("rank %d span %d has parent on rank %d", sp.Rank, i, pa.Rank)
			}
			const eps = 1e-9
			if sp.Start < pa.Start-eps || sp.End > pa.End+eps {
				t.Errorf("rank %d span %q [%g,%g] escapes parent %q [%g,%g]",
					rank, sp.Name, sp.Start, sp.End, pa.Name, pa.Start, pa.End)
			}
			if sp.Depth != pa.Depth+1 {
				t.Errorf("rank %d span %q depth %d under parent depth %d", rank, sp.Name, sp.Depth, pa.Depth)
			}
		}
	}

	// --- layer attribution ---
	totals := tr.LayerTotals()
	for _, layer := range []obs.Layer{obs.LayerApp, obs.LayerMPIIO, obs.LayerMPI, obs.LayerPFS} {
		if totals[layer] <= 0 {
			t.Errorf("layer %v has no exclusive virtual time (totals=%v)", layer, totals)
		}
	}
	// The two-phase split must be visible: exchange and io span groups.
	names := map[string]bool{}
	for _, st := range tr.LayerStats() {
		if st.Layer == obs.LayerMPIIO {
			names[st.Name] = true
		}
	}
	for _, want := range []string{"offsets", "exchange", "io", "read_all", "write_all"} {
		if !names[want] {
			t.Errorf("mpiio span group %q missing (have %v)", want, names)
		}
	}

	// --- counters ---
	cs := tr.Counters()
	if len(cs) == 0 {
		t.Fatal("no per-rank per-file counters")
	}
	var reads, writes int64
	for _, fc := range cs {
		reads += fc.Reads
		writes += fc.Writes
	}
	if reads == 0 || writes == 0 {
		t.Errorf("counters recorded reads=%d writes=%d", reads, writes)
	}

	// --- server observation ---
	srvNames, _ := tr.Servers()
	if len(srvNames) == 0 {
		t.Error("no server events observed")
	}

	// --- Perfetto export structure ---
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	var slices, counters, meta int
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			slices++
			if ev.Dur == nil {
				t.Fatalf("X event %q missing dur", ev.Name)
			}
		case "C":
			counters++
		case "M":
			meta++
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if slices == 0 || counters == 0 || meta == 0 {
		t.Errorf("trace events: %d slices, %d counters, %d metadata", slices, counters, meta)
	}
}

// TestTracedDeterminism runs the same small AMR64 experiment twice and
// demands bit-identical span streams, counter reports and timeline
// exports — the regression guard for the simulator's determinism.
func TestTracedDeterminism(t *testing.T) {
	runTraced := func() (*obs.Tracer, *Result) {
		tr := obs.NewTracer()
		res, err := Run(RunSpec{Machine: machine.ChibaCity(), FS: "pvfs", Procs: 4, Config: smallAMR64(), Backend: BackendMPIIO, Tracer: tr})
		if err != nil {
			t.Fatalf("traced run: %v", err)
		}
		return tr, res
	}
	tr1, res1 := runTraced()
	tr2, res2 := runTraced()

	if res1.Makespan != res2.Makespan {
		t.Errorf("makespans differ: %v vs %v", res1.Makespan, res2.Makespan)
	}
	s1, s2 := tr1.Spans(), tr2.Spans()
	if len(s1) != len(s2) {
		t.Fatalf("span counts differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		a, b := s1[i], s2[i]
		if a.Rank != b.Rank || a.Layer != b.Layer || a.Name != b.Name ||
			a.Start != b.Start || a.End != b.End || a.Bytes != b.Bytes ||
			a.Parent != b.Parent || a.Depth != b.Depth {
			t.Fatalf("span %d differs:\n  %+v\n  %+v", i, a, b)
		}
	}

	var rep1, rep2 bytes.Buffer
	tr1.WriteReport(&rep1, res1.Makespan)
	tr2.WriteReport(&rep2, res2.Makespan)
	if !bytes.Equal(rep1.Bytes(), rep2.Bytes()) {
		t.Error("counter reports differ between identical runs")
	}

	var tj1, tj2 bytes.Buffer
	if err := tr1.WriteTrace(&tj1); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if err := tr2.WriteTrace(&tj2); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if !bytes.Equal(tj1.Bytes(), tj2.Bytes()) {
		t.Error("timeline exports differ between identical runs")
	}
}

// TestZeroPerturbation checks the observability layer's core guarantee:
// attaching a tracer changes no virtual timing — phases and makespan are
// bit-identical with and without instrumentation.
func TestZeroPerturbation(t *testing.T) {
	for _, backend := range []Backend{BackendMPIIO, BackendHDF5, BackendHDF4} {
		plain, err := Run(RunSpec{Machine: machine.ChibaCity(), FS: "pvfs", Procs: 4, Config: smallAMR64(), Backend: backend})
		if err != nil {
			t.Fatalf("%v plain run: %v", backend, err)
		}
		tr := obs.NewTracer()
		traced, err := Run(RunSpec{Machine: machine.ChibaCity(), FS: "pvfs", Procs: 4, Config: smallAMR64(), Backend: backend, Tracer: tr})
		if err != nil {
			t.Fatalf("%v traced run: %v", backend, err)
		}
		if plain.Makespan != traced.Makespan {
			t.Errorf("%v: makespan perturbed: %v vs %v", backend, plain.Makespan, traced.Makespan)
		}
		if len(plain.Phases) != len(traced.Phases) {
			t.Fatalf("%v: phase counts differ", backend)
		}
		for i := range plain.Phases {
			if plain.Phases[i] != traced.Phases[i] {
				t.Errorf("%v: phase %q perturbed: %v vs %v", backend,
					plain.Phases[i].Name, plain.Phases[i].Seconds, traced.Phases[i].Seconds)
			}
		}
		if len(tr.Spans()) == 0 {
			t.Errorf("%v: traced run recorded no spans", backend)
		}
	}
}

// TestTracedBitIdentityAMR128 runs the full AMR128/np=8 configuration —
// the paper's headline case — plain and traced, and demands bit-identical
// results across the board: every Result field the simulation computes,
// and byte-identical trace exports between two traced runs. This is the
// regression net for the engine overhaul: the pooled obs span handles and
// the scratch (no-copy) collective paths must not perturb virtual time or
// event counts by even one bit.
func TestTracedBitIdentityAMR128(t *testing.T) {
	if testing.Short() {
		t.Skip("full AMR128 run; skipped with -short")
	}
	cfg := AMR128()
	plain, err := Run(RunSpec{Machine: machine.ChibaCity(), FS: "pvfs", Procs: 8, Config: cfg, Backend: BackendMPIIO})
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	tr1 := obs.NewTracer()
	traced, err := Run(RunSpec{Machine: machine.ChibaCity(), FS: "pvfs", Procs: 8, Config: cfg, Backend: BackendMPIIO, Tracer: tr1})
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if plain.Makespan != traced.Makespan {
		t.Errorf("makespan perturbed: %v vs %v", plain.Makespan, traced.Makespan)
	}
	if plain.Events != traced.Events {
		t.Errorf("event count perturbed: %d vs %d", plain.Events, traced.Events)
	}
	if plain.BytesRead != traced.BytesRead || plain.BytesWritten != traced.BytesWritten {
		t.Errorf("byte accounting perturbed: r %d/%d w %d/%d",
			plain.BytesRead, traced.BytesRead, plain.BytesWritten, traced.BytesWritten)
	}
	if !plain.Verified || !traced.Verified {
		t.Errorf("verification failed: plain %v traced %v", plain.Verified, traced.Verified)
	}
	if len(plain.Phases) != len(traced.Phases) {
		t.Fatalf("phase counts differ: %d vs %d", len(plain.Phases), len(traced.Phases))
	}
	for i := range plain.Phases {
		if plain.Phases[i] != traced.Phases[i] {
			t.Errorf("phase %q perturbed: %v vs %v",
				plain.Phases[i].Name, plain.Phases[i].Seconds, traced.Phases[i].Seconds)
		}
	}

	// A second traced run must reproduce the first byte for byte.
	tr2 := obs.NewTracer()
	traced2, err := Run(RunSpec{Machine: machine.ChibaCity(), FS: "pvfs", Procs: 8, Config: cfg, Backend: BackendMPIIO, Tracer: tr2})
	if err != nil {
		t.Fatalf("second traced run: %v", err)
	}
	if !reflect.DeepEqual(traced2, traced) {
		t.Errorf("traced results differ between identical runs:\n%+v\n%+v", traced, traced2)
	}
	var tj1, tj2 bytes.Buffer
	if err := tr1.WriteTrace(&tj1); err != nil {
		t.Fatal(err)
	}
	if err := tr2.WriteTrace(&tj2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tj1.Bytes(), tj2.Bytes()) {
		t.Error("trace exports differ between identical AMR128 runs")
	}
}
