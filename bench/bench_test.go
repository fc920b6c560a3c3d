package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/enzo"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts that every metric of defs is in the report, finite
// and well spelt, and that nothing else is.
func checkMetrics(t *testing.T, wr workloadReport, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", d.Name)
		}
		s, ok := wr.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", wr.Name, d.Name)
			continue
		}
		for _, v := range []float64{s.Value, s.Min, s.Max} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s is not finite: %+v", wr.Name, d.Name, s)
			}
		}
		if s.Unit != d.Unit || s.N < 1 {
			t.Errorf("%s: metric %s has unit %q n=%d, want unit %q n>=1", wr.Name, d.Name, s.Unit, s.N, d.Unit)
		}
	}
	if len(wr.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, table has %d", wr.Name, len(wr.Metrics), len(defs))
	}
}

// TestQuick runs all four workloads end to end and through the layer pass
// in quick mode, then round-trips the report and compares it with itself.
func TestQuick(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // the layer pass writes under outDir
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	o := options{seed: defaultSeed, quick: true}
	rep := newReport(o)
	for _, name := range workloadNames {
		w, err := buildWorkload(name, o.seed, o.quick)
		if err != nil {
			t.Fatal(err)
		}
		wr := w.measure(o)
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: fail_ratio %d/%d: %v", name, wr.Failed, wr.Attempted, wr.Failures)
		}
		checkMetrics(t, wr, endToEnd)
		for _, d := range endToEnd {
			if wr.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", name, d.Name, wr.Metrics[d.Name].Value)
			}
		}
		var line struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  *string
			}
		}
		dec := json.NewDecoder(strings.NewReader(wr.resultLine()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil || line.Correct == nil || !*line.Correct ||
			line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: result line %s does not meet the contract (%v)", name, wr.resultLine(), err)
		}
		rep.Workloads = append(rep.Workloads, wr)

		o.trace = true
		lr, rec := w.layers(o)
		o.trace = false
		if lr.Failed != 0 {
			t.Errorf("%s: layer pass fail_ratio %d/%d: %v", name, lr.Failed, lr.Attempted, lr.Failures)
		}
		checkMetrics(t, lr, perLayer)
		if len(rec.open) != 0 || len(rec.spans) == 0 {
			t.Errorf("%s: %d spans recorded, %d left open", name, len(rec.spans), len(rec.open))
		}
		for _, s := range rec.spans {
			if s.Parent >= s.ID || s.EndNS < s.StartNS {
				t.Errorf("%s: bad span %+v", name, s)
			}
		}
	}

	path := filepath.Join(outDir, "report.json")
	if err := rep.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Errorf("report did not survive the JSON round trip:\n%+v\n%+v", rep, back)
	}
	var out bytes.Buffer
	if code := runCompare(&out, path, path); code != 0 {
		t.Errorf("-compare x x exited %d:\n%s", code, out.String())
	}
	if n := strings.Count(out.String(), verdictOK); n != len(workloadNames)*(len(endToEnd)+1) {
		t.Errorf("-compare x x printed %d ok verdicts, want %d:\n%s", n, len(workloadNames)*(len(endToEnd)+1), out.String())
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in metrics.go.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("paths %v command %v", doc.Paths, doc.Command)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		built, err := buildWorkload(w.Name, defaultSeed, false)
		if err != nil || built.why != w.Why {
			t.Errorf("workload %s: why %q, program says %q (%v)", w.Name, w.Why, built.why, err)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, tables have %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (metric{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s[%d] = %+v, table has %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestJudge(t *testing.T) {
	s := func(v, lo, hi float64) sample { return sample{Value: v, Min: lo, Max: hi, N: 3} }
	for _, c := range []struct {
		name  string
		a, b  sample
		bound float64
		want  string
	}{
		{"same", s(10, 9.9, 10.1), s(10, 9.9, 10.1), 0.10, verdictOK},
		{"within bound", s(10, 9.9, 10.1), s(10.9, 10.8, 11), 0.10, verdictOK},
		{"beyond bound", s(10, 9.9, 10.1), s(11.1, 11, 11.2), 0.10, verdictWorse},
		{"noisy", s(10, 8, 12), s(10.1, 9.9, 10.3), 0.10, verdictUnresolved},
		{"noisy but every run better", s(10, 8, 12), s(7, 6, 7.9), 0.10, verdictOK},
		{"exact clock moved", s(10, 10, 10), s(10.000001, 10.000001, 10.000001), simExact, verdictWorse},
	} {
		if got := judge(c.a, c.b, c.bound); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSeeded(t *testing.T) {
	base := enzo.AMR64()
	if got := seeded(base, defaultSeed); !reflect.DeepEqual(got, base) {
		t.Errorf("the default seed changed the problem: %+v", got)
	}
	distinct := map[int]bool{}
	for seed := int64(0); seed < 20; seed++ {
		got := seeded(base, seed)
		distinct[got.NParticles] = true
		if got.Seed != base.Seed || got.NParticles > base.NParticles || got.NParticles < base.NParticles-base.NParticles/1024 {
			t.Errorf("seed %d: %d particles, layout seed %d", seed, got.NParticles, got.Seed)
		}
		if again := seeded(base, seed); again != got {
			t.Errorf("seed %d is not deterministic", seed)
		}
	}
	if len(distinct) < 15 {
		t.Errorf("20 seeds gave only %d distinct inputs", len(distinct))
	}
}

func TestBucketTraces(t *testing.T) {
	const sep = "-----------+-------------------------------------------------------\n"
	out := "File: bench\nType: cpu\n" +
		sep + "      60ms   runtime.memmove\n             repro/internal/pfs.(*ByteStore).WriteAt\n             repro/internal/enzo.(*Sim).Run\n" +
		sep + "      30ms   repro/internal/sim.(*Engine).handoff\n             repro/internal/mpi.(*Rank).Recv\n" +
		sep + "      10ms   runtime.gcBgMarkWorker\n"
	got := bucketTraces([]byte(out))
	want := map[string]float64{"pfs": 0.6, "sim": 0.3, "runtime": 0.1}
	for layer, share := range want {
		if math.Abs(got[layer]-share) > 1e-12 {
			t.Errorf("%s share %v, want %v (all: %v)", layer, got[layer], share, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("shares %v, want %v", got, want)
	}
	if bucketTraces([]byte("pprof: not a profile")) != nil {
		t.Error("unreadable output must give nil, not shares")
	}
}
