// Command iobench regenerates the paper's evaluation — Table 1 and Figures
// 6-10 — and the repository's extension sweeps, printing each as a table of
// deterministic virtual-time measurements. What it can run is the
// experiments registry: one row there is one -exp name here.
//
// Usage:
//
//	iobench [-exp <sweep>|all] [-quick] [-codec none|rle|delta|lzss] [-async] [-autotune]
//
// -exp with an unknown name lists the registered ones.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strings"

	"repro/cmd/internal/runflags"
	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// validExps is the registry's sweep list plus the run-everything alias;
// TestUsageListsEveryRegisteredSweep holds the -exp usage text to it.
func validExps() []string {
	return append(experiments.SweepNames(), "all")
}

func expUsage() string {
	return "experiment to run: " + strings.Join(validExps(), ", ")
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("iobench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	exp := fl.String("exp", "all", expUsage())
	quick := fl.Bool("quick", false, "shrink problems for a fast smoke run")
	chart := fl.Bool("chart", false, "also render each figure as ASCII bar charts")
	tracedir := fl.String("tracedir", "", "write per-case Perfetto timelines and counter reports into this directory (every sweep but table1, which runs nothing, and tenants, which runs fleets)")
	var dump runflags.Dump // applied to every case
	dump.Register(fl)
	diagnose := fl.Bool("diagnose", false, "diagnose every case and print its findings after each sweep (the sweeps -tracedir covers)")
	cpuprofile := fl.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fl.String("memprofile", "", "write an allocation profile to this file at exit")
	exectrace := fl.String("exectrace", "", "write a runtime execution trace of the run to this file")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	// Validate before anything with a side effect: a rejected command line
	// must not leave a profile file behind.
	if !slices.Contains(validExps(), *exp) {
		fmt.Fprintf(stderr, "unknown experiment %q (want one of %v)\n", *exp, validExps())
		fl.Usage()
		return 2
	}
	if err := dump.Check(); err != nil {
		fmt.Fprintln(stderr, err)
		fl.Usage()
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *exectrace != "" {
		f, err := os.Create(*exectrace)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 2
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 2
		}
		defer trace.Stop()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 2
		}
		defer func() {
			runtime.GC() // flush final allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(stderr, "error:", err)
			}
			f.Close()
		}()
	}

	o := experiments.Options{Quick: *quick, TraceDir: *tracedir, Codec: dump.Codec, Async: dump.Async, AutoTune: dump.AutoTune}
	var findings []experiments.CaseFindings
	if *diagnose {
		o.DiagnoseSink = func(cf experiments.CaseFindings) { findings = append(findings, cf) }
	}
	for _, sweep := range experiments.Registry() {
		if *exp != "all" && *exp != sweep.Name {
			continue
		}
		fmt.Fprintln(stdout, sweep.Title)
		tables, err := sweep.Run(o)
		if err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		for _, t := range tables {
			t.Print(stdout)
			fmt.Fprintln(stdout)
		}
		if len(findings) > 0 {
			experiments.WriteFindings(stdout, findings)
			fmt.Fprintln(stdout)
			findings = findings[:0]
		}
		for _, t := range tables {
			if *chart && t.Chart != nil {
				t.Chart(stdout)
			}
		}
	}
	return 0
}
