package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// sample is one metric of one workload: the median of N observations with
// their range. Counts and simulated clocks have N = 1.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// workloadReport is everything one run of one workload measured.
type workloadReport struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	SubRuns   []string          `json:"sub_runs"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]sample `json:"metrics"`
}

// report is the document -out writes and -compare reads.
type report struct {
	Seed       int64            `json:"seed"`
	Quick      bool             `json:"quick"`
	Layers     bool             `json:"layers"` // per-layer metrics (traced pass) instead of end-to-end
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Workloads  []workloadReport `json:"workloads"`
}

func newReport(o options) report {
	return report{Seed: o.seed, Quick: o.quick, Layers: o.trace,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

func newWorkloadReport(w workload, ck *checker) workloadReport {
	r := workloadReport{Name: w.name, Why: w.why, Attempted: ck.attempted, Failed: ck.failed,
		Failures: ck.failures, Notes: ck.notes, Metrics: make(map[string]sample)}
	for _, s := range w.subs {
		r.SubRuns = append(r.SubRuns, fmt.Sprintf("%s: %s %s/%s np=%d %s", s.name, s.cfg.Problem, s.mach.Name, s.fs, s.np, s.backend))
	}
	return r
}

// set records the median of vals under a metric of either table.
func (r *workloadReport) set(name string, vals []float64) {
	def := findMetric(endToEnd, name)
	if def == nil {
		def = findMetric(perLayer, name)
	}
	if def == nil {
		panic("bench: metric " + name + " is in neither table")
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	r.Metrics[name] = sample{Value: median(sorted), Unit: def.Unit, Min: sorted[0], Max: sorted[len(sorted)-1], N: len(sorted)}
}

func (r *workloadReport) setOne(name string, v float64) { r.set(name, []float64{v}) }

// median of a sorted, non-empty slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func (r report) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func (r report) workload(name string) *workloadReport {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func (r report) printHeader(w io.Writer) {
	mode := "end-to-end (tracing off)"
	if r.Layers {
		mode = "per-layer (traced pass + probes)"
	}
	fmt.Fprintf(w, "enzo I/O simulator benchmark: %s, seed=%d quick=%v %s nproc=%d gomaxprocs=%d\n",
		mode, r.Seed, r.Quick, r.GoVersion, r.NumCPU, r.GOMAXPROCS)
}

// print renders one workload's metrics in table order, each by name with
// its unit, then the output check.
func (wr workloadReport) print(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "\nworkload %s — %s\n", wr.Name, wr.Why)
	for _, s := range wr.SubRuns {
		fmt.Fprintf(w, "  sub-run %s\n", s)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tunit\tmedian\tmin\tmax\tn\tbound")
	for _, d := range defs {
		s, ok := wr.Metrics[d.Name]
		if !ok {
			continue
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("%g%%", d.Bound*100)
			if isSimulated(d.Name) {
				bound += " across seeds, exact at one"
			}
		}
		if s.Value == notMeasured && d.Bound == 0 {
			why := "skipped:oom"
			if strings.HasSuffix(d.Name, ".cpu_share") {
				why = "n/a"
			}
			fmt.Fprintf(tw, "  %s\t%s\t%s\t\t\t0\t\n", d.Name, d.Unit, why)
			continue
		}
		fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%s\n", d.Name, d.Unit, s.Value, s.Min, s.Max, s.N, bound)
	}
	tw.Flush()
	if s, ok := wr.Metrics["wall_s"]; ok {
		fmt.Fprintf(w, "  wall_s has %d samples: a median and a range, too few for a tail percentile\n", s.N)
	}
	fmt.Fprintf(w, "  fail_ratio %d/%d", wr.Failed, wr.Attempted)
	if wr.Failed == 0 {
		fmt.Fprint(w, " — every sub-run returned no error, verified its restart and repeated its Result field for field")
	}
	fmt.Fprintln(w)
	for _, n := range wr.Notes {
		fmt.Fprintf(w, "  check: %s\n", n)
	}
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// resultLine is the last line of a single-workload run: the benchmark
// contract's JSON object.
func (wr workloadReport) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(wr.Metrics))
	for name, s := range wr.Metrics {
		metrics[name] = value{s.Value, s.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		panic(err) // only finite numbers and strings go in
	}
	return string(b)
}
