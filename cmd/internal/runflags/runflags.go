// Package runflags is the flag set shared by the commands that run one
// ENZO configuration (enzosim, iodoctor): it declares the run flags,
// validates them in one dialect and resolves them into an enzo.RunSpec.
// Each command keeps its own defaults and its own output flags. iobench,
// which runs sweeps rather than one configuration, shares the Dump flags.
package runflags

import (
	"errors"
	"flag"
	"fmt"
	"slices"

	"repro/internal/compress"
	"repro/internal/diag"
	"repro/internal/enzo"
	"repro/internal/faultfs"
	"repro/internal/machine"
	"repro/internal/pfs"
)

// Defaults are a command's defaults for the flags whose default differs
// between commands, and whether it has -quick.
type Defaults struct {
	Machine, FS, Problem string
	Quick                bool // declare -quick
}

// Dump holds the flags that change how a run writes its checkpoints:
// field compression, write-behind and the hint autotuner.
type Dump struct {
	Codec           string
	Async, AutoTune bool
}

// Register declares -codec, -async and -autotune on fl.
func (d *Dump) Register(fl *flag.FlagSet) {
	fl.StringVar(&d.Codec, "codec", "none", "transparent field compression: none, rle, delta, lzss (refused with -backend hdf4)")
	fl.BoolVar(&d.Async, "async", false, "write-behind checkpoint I/O: overlap dumps with the next step's compute (refused with -backend hdf4)")
	fl.BoolVar(&d.AutoTune, "autotune", false, "tune the MPI-IO hint vector off a short probe run before the main run")
}

// Check validates -codec; an error is a usage error.
func (d *Dump) Check() error {
	_, err := compress.Resolve(d.Codec)
	return err
}

// Flags holds the parsed values; read them after FlagSet.Parse.
type Flags struct {
	Dump
	Machine, FS, Problem, Backend string
	Procs, Replicas               int
	MemBudget                     int64 // MiB
	Scrub, CAStore                bool
	Quick                         bool
	Straggler                     float64
	Corrupt                       int64
}

// Register declares the run flags on fl.
func Register(fl *flag.FlagSet, d Defaults) *Flags {
	f := new(Flags)
	fl.StringVar(&f.Machine, "machine", d.Machine, "platform model: origin2000, sp2, chiba, cluster1024")
	fl.StringVar(&f.FS, "fs", d.FS, "file system model: xfs, gpfs, pvfs, local")
	fl.IntVar(&f.Procs, "np", 8, "number of MPI ranks")
	fl.StringVar(&f.Problem, "problem", d.Problem, "problem size: tiny, AMR64, AMR128, AMR256, AMR512")
	fl.Int64Var(&f.MemBudget, "membudget", 0, "host-memory footprint budget in MiB (0 = 16384 default, negative = unlimited; AMR512 needs this raised)")
	fl.StringVar(&f.Backend, "backend", "mpiio", "I/O backend: hdf4, mpiio, mpiio-cb, hdf5")
	f.Dump.Register(fl)
	fl.BoolVar(&f.Scrub, "scrub", false, "read-back scrub after each dump, with re-dump and generation-fallback recovery")
	fl.BoolVar(&f.CAStore, "castore", false, "content-addressed checkpoint store: chunked dumps with cross-generation dedup (refused with -backend hdf4)")
	fl.IntVar(&f.Replicas, "replicas", 1, "data servers each castore chunk/manifest is replicated on (needs -castore)")
	if d.Quick {
		fl.BoolVar(&f.Quick, "quick", false, "shrink the problem for a fast smoke run")
	}
	fl.Float64Var(&f.Straggler, "straggler", 1, "degrade one data server of a striped fs by this service-time factor")
	fl.Int64Var(&f.Corrupt, "corrupt", 0, "silently corrupt every Nth sizeable checkpoint write (0 = off)")
	return f
}

// Given returns the first flag, in lexical order, that the command line
// set on fl and that is a run flag or one of also; "" if there is none.
func Given(fl *flag.FlagSet, also ...string) (name string) {
	run := flag.NewFlagSet("", flag.ContinueOnError)
	Register(run, Defaults{Quick: true})
	fl.Visit(func(g *flag.Flag) {
		if name == "" && (run.Lookup(g.Name) != nil || slices.Contains(also, g.Name)) {
			name = g.Name
		}
	})
	return name
}

// Resolve validates the parsed flags and builds the run they describe. An
// error is a usage error: the command prints it with its usage and exits 2.
func (f *Flags) Resolve() (enzo.RunSpec, error) {
	var spec enzo.RunSpec
	switch f.Machine {
	case "origin2000", "sp2", "chiba", "cluster1024":
		// machine.ByName panics on anything else, by contract.
		spec.Machine = machine.ByName(f.Machine)
	default:
		return spec, fmt.Errorf("unknown machine %q (want origin2000, sp2, chiba or cluster1024)", f.Machine)
	}
	switch f.FS {
	case "xfs", "gpfs", "pvfs", "local":
		spec.FS = f.FS
	default:
		return spec, fmt.Errorf("unknown file system %q (want xfs, gpfs, pvfs or local)", f.FS)
	}
	if f.Procs < 1 {
		return spec, fmt.Errorf("-np must be >= 1 (got %d)", f.Procs)
	}
	spec.Procs = f.Procs

	cfg, err := enzo.ProblemByName(f.Problem)
	if err != nil {
		return spec, err
	}
	switch {
	case f.MemBudget > 0:
		cfg.MemBudget = f.MemBudget << 20
	case f.MemBudget < 0:
		cfg.MemBudget = -1
	}
	if f.Quick {
		cfg = cfg.Quick()
	}
	if err := f.Dump.Check(); err != nil {
		return spec, err
	}
	cfg.Codec = f.Codec
	cfg.AsyncIO = f.Async
	cfg.ScrubOnDump = f.Scrub
	if spec.Backend, err = enzo.BackendByName(f.Backend); err != nil {
		return spec, err
	}
	if f.Replicas < 1 {
		return spec, fmt.Errorf("-replicas must be >= 1 (got %d)", f.Replicas)
	}
	cfg.CAStore, cfg.Replicas = f.CAStore, f.Replicas
	spec.Config = cfg

	if f.Straggler < 1 {
		return spec, fmt.Errorf("-straggler must be >= 1 (got %g)", f.Straggler)
	}
	if f.Corrupt < 0 {
		return spec, fmt.Errorf("-corrupt must be >= 0 (got %d)", f.Corrupt)
	}
	var degrade, corrupt func(pfs.FileSystem) pfs.FileSystem
	if f.Straggler > 1 {
		if f.FS != "pvfs" && f.FS != "gpfs" {
			return spec, fmt.Errorf("-straggler needs a striped file system (pvfs, gpfs); got %q", f.FS)
		}
		degrade = func(fs pfs.FileSystem) pfs.FileSystem {
			inj, _ := pfs.As[pfs.StripeFaultInjector](fs) // f.FS is striped: checked above
			inj.DegradeDataServer(0, f.Straggler)
			return fs
		}
	}
	if f.Corrupt > 0 {
		corrupt = func(fs pfs.FileSystem) pfs.FileSystem {
			// Checkpoint files only ("dump..."), sizeable writes only, so
			// the initial-conditions read stays intact; a bounded number of
			// faults keeps recovery (with -scrub) terminating.
			return faultfs.Wrap(fs, faultfs.Config{
				Mode: faultfs.CorruptWrite, EveryN: f.Corrupt,
				MinBytes: 2048, FileSubstr: "dump", MaxInject: 4,
			})
		}
	}
	spec.Wrap = Chain(degrade, corrupt)
	return spec, Refused(spec)
}

// Refused returns the *enzo.SpecError of a composition enzo.RunSpec.Validate
// refuses, a usage error; nil otherwise. The memory-footprint guard is left
// to the run, which fails with it.
func Refused(spec enzo.RunSpec) error {
	if err := spec.Validate(); errors.As(err, new(*enzo.SpecError)) {
		return err
	}
	return nil
}

// Chain composes file-system wrappers, innermost first, skipping nil ones;
// it returns nil when there is nothing to apply.
func Chain(wraps ...func(pfs.FileSystem) pfs.FileSystem) func(pfs.FileSystem) pfs.FileSystem {
	var live []func(pfs.FileSystem) pfs.FileSystem
	for _, w := range wraps {
		if w != nil {
			live = append(live, w)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return func(fs pfs.FileSystem) pfs.FileSystem {
		for _, w := range live {
			fs = w(fs)
		}
		return fs
	}
}

// Tune applies -autotune to spec: the short probe runs, its report goes
// through the detector registry and the derived hint deltas land in
// spec.Config. Without -autotune it does nothing. The error is a failed
// probe run, not a usage error.
func (f *Flags) Tune(spec *enzo.RunSpec) (deltas []diag.HintsDelta, probe *diag.Report, err error) {
	if !f.AutoTune {
		return nil, nil, nil
	}
	tuned, deltas, probe, err := diag.AutoTune(spec.Machine, spec.FS, spec.Procs, spec.Config, spec.Backend)
	if err == nil {
		spec.Config = tuned
	}
	return deltas, probe, err
}
