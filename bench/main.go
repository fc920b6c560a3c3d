// Command bench is the repository's benchmark: four fixed workloads over the
// ENZO I/O simulator, measured on two clocks. Host metrics (setup_s, wall_s,
// alloc_mb, allocs_k) are what a sweep costs the person running it;
// simulated metrics (sim_io_vs, sim_makespan_vs) are what the modelled 2002
// machines would take and must not move under a simulator-only change.
//
//	go run ./bench                       every workload, tracing off, output checked
//	go run ./bench -layers               the traced pass: per-layer metrics, probes, spans
//	go run ./bench -workload paper_np8   one workload; the last line is the result as JSON
//	go run ./bench -compare a.json b.json
//
// See README.md in this directory for the workloads, the metrics and how
// they are expected to interact.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// processStart is as close to process start as Go code gets; setup_s runs
// from here to the end of the warm-up repetition.
var processStart = time.Now()

// outDir holds what a run leaves behind: reports, span files, and the CPU
// profile while it is being read.
const outDir = ".bench_out"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	out      string
	spans    string
}

func main() {
	var o options
	var trace int
	var layers, compare bool
	flag.StringVar(&o.workload, "workload", "", "run one workload (`name`) in this process; empty runs all four, each in a child process")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed; 1789 gives exactly the problems the BENCH_*.json gates pin")
	flag.Float64Var(&o.seconds, "seconds", 10, "timed repetitions run until this many seconds have passed, never fewer than 3")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass (per-layer metrics), 0 the end-to-end pass")
	flag.BoolVar(&layers, "layers", false, "same as -trace 1")
	flag.BoolVar(&o.quick, "quick", false, "Tiny problem at np=4, one repetition, small probes: a smoke run, not a measurement")
	flag.StringVar(&o.out, "out", "", "write the full report as JSON to this `file` (default "+outDir+"/<mode>.json)")
	flag.StringVar(&o.spans, "spans", "", "traced pass: write the benchmark's own spans to this `file` (default "+outDir+"/spans-<workload>.json)")
	flag.BoolVar(&compare, "compare", false, "compare two reports: -compare a.json b.json; exit 1 if b is worse")
	flag.Parse()
	o.trace = layers || trace != 0

	switch {
	case compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case flag.NArg() != 0:
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	case o.workload == "":
		os.Exit(runAll(o))
	default:
		os.Exit(runOne(o))
	}
}

func (o options) mode() string {
	if o.trace {
		return "layers"
	}
	return "end-to-end"
}

func (o options) defs() []metricDef {
	if o.trace {
		return perLayer
	}
	return endToEnd
}

// runOne measures one workload in this process and ends standard output
// with the result line.
func runOne(o options) int {
	w, err := buildWorkload(o.workload, o.seed, o.quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rep := newReport(o)
	rep.printHeader(os.Stdout)

	var wr workloadReport
	if o.trace {
		var rec *recorder
		wr, rec = w.layers(o)
		spans := o.spans
		if spans == "" {
			spans = filepath.Join(outDir, "spans-"+w.name+".json")
		}
		if err := rec.write(spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		wr.Notes = append(wr.Notes, fmt.Sprintf("%d spans written to %s", len(rec.spans), spans))
	} else {
		wr = w.measure(o)
	}
	wr.print(os.Stdout, o.defs())

	rep.Workloads = []workloadReport{wr}
	if o.out != "" {
		if err := rep.write(o.out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Println(wr.resultLine())
	if wr.Failed > 0 {
		return 1
	}
	return 0
}

// runAll is the one command: every workload, each in its own child process
// so that setup_s is a true cold start, one after another so that only one
// simulation loads the machine at a time.
func runAll(o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rep := newReport(o)
	status := 0
	for _, name := range workloadNames {
		part := filepath.Join(outDir, o.mode()+"-"+name+".json")
		args := []string{"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", part}
		if o.trace {
			args = append(args, "-trace", "1")
			if o.spans != "" {
				args = append(args, "-spans", o.spans+"."+name)
			}
		}
		if o.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", name, err)
			status = 1
		}
		child, err := readReport(part)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			status = 1
			continue
		}
		rep.Workloads = append(rep.Workloads, child.Workloads...)
	}

	out := o.out
	if out == "" {
		out = filepath.Join(outDir, o.mode()+".json")
	}
	if err := rep.write(out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	attempted, failed := 0, 0
	for _, wr := range rep.Workloads {
		attempted, failed = attempted+wr.Attempted, failed+wr.Failed
	}
	fmt.Printf("\n%d workloads, fail_ratio %d/%d, report written to %s\n", len(rep.Workloads), failed, attempted, out)
	if failed > 0 {
		status = 1
	}
	return status
}
