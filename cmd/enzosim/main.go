// Command enzosim runs one simulated ENZO configuration — platform, file
// system, processor count, problem size and I/O backend — and prints the
// timed phases, byte accounting and verification status.
//
// Usage:
//
//	enzosim [-machine origin2000|sp2|chiba|cluster1024] [-fs xfs|gpfs|pvfs|local]
//	        [-np N] [-problem AMR64|AMR128|AMR256|AMR512|tiny] [-membudget MIB]
//	        [-backend hdf4|mpiio|mpiio-cb|hdf5] [-dumps N]
//	        [-codec none|rle|delta|lzss] [-async] [-autotune]
//	        [-scrub] [-generations N] [-straggler FACTOR] [-corrupt N]
//	        [-castore] [-replicas K]
//
// The fault flags: -scrub enables the post-dump read-back scrub with
// re-dump and generation-fallback recovery; -generations bounds how many
// dump generations the restart fallback scans; -straggler degrades one
// data server of a striped file system (pvfs, gpfs) by the given
// service-time factor; -corrupt silently corrupts every Nth sizeable write
// to checkpoint files, which -scrub then has to catch.
//
// -castore routes dumps and restarts through the content-addressed chunk
// store (cross-generation dedup); -replicas places each chunk and manifest
// on K data servers so restart reads fail over past a dead server.
//
// Times are deterministic virtual seconds on the modelled platform, not
// wall-clock time of the simulator. The traced view of a run — counters, the
// Pablo-style I/O characterization, findings — is iodoctor -format counters.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/cmd/internal/runflags"
	"repro/internal/enzo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("enzosim", flag.ContinueOnError)
	fl.SetOutput(stderr)
	rf := runflags.Register(fl, runflags.Defaults{Machine: "origin2000", FS: "xfs", Problem: "AMR64"})
	dumps := fl.Int("dumps", 1, "checkpoint dumps per run")
	refine := fl.Int("refine", 0, "dynamic refinement passes during evolution")
	generations := fl.Int("generations", 0, "dump generations the restart fallback scans, newest first (0 = all; needs -scrub or -castore)")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "enzosim:", err)
		fl.Usage()
		return 2
	}
	spec, err := rf.Resolve()
	if err != nil {
		return fail(err)
	}
	if *generations < 0 {
		return fail(fmt.Errorf("-generations must be >= 0 (got %d)", *generations))
	}
	spec.Config.Dumps = *dumps
	spec.Config.RefineCycles = *refine
	spec.Config.Generations = *generations
	if err := runflags.Refused(spec); err != nil {
		return fail(err)
	}

	tuneDeltas, _, err := rf.Tune(&spec)
	if err != nil {
		fmt.Fprintln(stderr, "autotune failed:", err)
		return 1
	}
	res, err := enzo.Run(spec)
	if err != nil {
		fmt.Fprintln(stderr, "simulation failed:", err)
		return 1
	}

	fmt.Fprintf(stdout, "problem      %s (%d grids)\n", res.Problem, res.Grids)
	fmt.Fprintf(stdout, "platform     %s / %s, %d ranks\n", rf.Machine, rf.FS, rf.Procs)
	fmt.Fprintf(stdout, "backend      %s\n", res.Backend)
	fmt.Fprintf(stdout, "codec        %s\n", res.Codec)
	if rf.AutoTune {
		if len(tuneDeltas) == 0 {
			fmt.Fprintln(stdout, "autotune     defaults already optimal (no deltas)")
		}
		for _, d := range tuneDeltas {
			fmt.Fprintf(stdout, "autotune     %s: %s -> %s (%s)\n", d.Param, d.From, d.To, d.Why)
		}
	}
	for _, p := range res.Phases {
		fmt.Fprintf(stdout, "  %-10s %10.3f s\n", p.Name, p.Seconds)
	}
	if rf.Async {
		fmt.Fprintf(stdout, "async dump   exposed %.3f s, hidden %.3f s (%.1f%% of device time hidden)\n",
			res.ExposedWrite, res.HiddenWrite, 100*res.HiddenFraction())
	}
	if rf.Scrub {
		fmt.Fprintf(stdout, "scrub        failures %d, redumps %d, restart fallbacks %d\n",
			res.ScrubFailures, res.Redumps, res.RestartFallbacks)
	}
	if rf.CAStore {
		fmt.Fprintf(stdout, "castore      %d chunks put, %d dedup hits; logical %.1f MB, physical %.1f MB, deduped %.1f MB; %d failovers\n",
			res.CASChunkPuts, res.CASChunkHits,
			float64(res.CASLogicalBytes)/(1<<20), float64(res.CASPhysicalBytes)/(1<<20),
			float64(res.CASDedupedBytes)/(1<<20), res.CASFailovers)
	}
	fmt.Fprintf(stdout, "bytes read    %d (%.1f MB)\n", res.BytesRead, float64(res.BytesRead)/(1<<20))
	fmt.Fprintf(stdout, "bytes written %d (%.1f MB)\n", res.BytesWritten, float64(res.BytesWritten)/(1<<20))
	fmt.Fprintf(stdout, "verified     %v\n", res.Verified)
	if !res.Verified {
		return 1
	}
	return 0
}
