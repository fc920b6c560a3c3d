package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/enzo"
	"repro/internal/faultfs"
	"repro/internal/machine"
	"repro/internal/pfs"
)

// StragglerRow is one configuration of the straggler sweep: one degraded
// data server, dump wall-time against the healthy baseline.
type StragglerRow struct {
	Problem  string
	Machine  string
	FS       string
	Backend  string
	Procs    int
	Slowdown float64 // service-time multiplier of data server 0 (1 = healthy)

	WriteSec float64 // checkpoint dump wall-time
	Factor   float64 // WriteSec relative to the healthy row of the same case
	Verified bool
}

// RecoveryRow is one configuration of the recovery sweep: silent write
// corruption at a given rate against the scrub/re-dump machinery.
type RecoveryRow struct {
	Problem string
	FS      string
	Backend string
	Codec   string
	Procs   int
	// EveryN is the corruption rate: every Nth eligible dump write is
	// corrupted (0 = clean medium).
	EveryN int64

	Injected      int64   // faults the medium actually injected
	ScrubFailures int     // generations caught dirty by the read-back scrub
	Redumps       int     // re-dump rounds spent recovering
	Fallbacks     int     // dirty generations the restart skipped
	ScrubSec      float64 // scrub + re-dump wall-time (the recovery cost)
	WriteSec      float64 // the dump itself, for scale
	Verified      bool
}

// stragglerSweep is the first half of the fault-tolerance evaluation: one
// degraded data server at increasing slowdown factors, MPI-IO and HDF5 on
// PVFS and GPFS. Like the recovery half it is deterministic virtual time —
// two invocations produce bit-identical rows.
func stragglerSweep(o Options) ([]StragglerRow, error) {
	type platform struct {
		mach machine.Config
		fs   string
	}
	platforms := []platform{
		{machine.ChibaCity(), "pvfs"},
		{machine.SP2(), "gpfs"},
	}
	backends := []enzo.Backend{enzo.BackendMPIIO, enzo.BackendHDF5}
	slowdowns := []float64{1, 2, 10}
	const np = 8
	var rows []StragglerRow
	for _, pl := range platforms {
		for _, backend := range backends {
			var healthyWrite float64
			for _, slow := range slowdowns {
				c := Case{"faults", enzo.RunSpec{Machine: pl.mach, FS: pl.fs, Procs: np, Config: o.problem("AMR64"), Backend: backend,
					Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
						if slow > 1 {
							inj, _ := pfs.As[pfs.StripeFaultInjector](fs) // both platforms are striped
							inj.DegradeDataServer(0, slow)
						}
						return fs
					},
				}}
				res, err := runCase(c, fmt.Sprintf("straggler x%g", slow), o)
				if err != nil {
					return nil, err
				}
				if slow == 1 {
					healthyWrite = res.WriteTime()
				}
				factor := 0.0
				if healthyWrite > 0 {
					factor = res.WriteTime() / healthyWrite
				}
				rows = append(rows, StragglerRow{
					Problem: res.Problem, Machine: pl.mach.Name, FS: pl.fs,
					Backend: backend.String(), Procs: np, Slowdown: slow,
					WriteSec: res.WriteTime(), Factor: factor, Verified: res.Verified,
				})
			}
		}
	}
	return rows, nil
}

// recoverySweep is the second half: scrub + re-dump cost at increasing
// silent-corruption rates, plus a generation-fallback case. It fixes the
// codec of every row itself, so Options.Codec does not apply.
func recoverySweep(o Options) ([]RecoveryRow, error) {
	mach := machine.ChibaCity()
	const np = 8
	var rows []RecoveryRow
	for _, codec := range []string{"none", "lzss"} {
		for _, everyN := range []int64{0, 8, 4} {
			cfg := o.problem("AMR64")
			cfg.Codec = codec
			cfg.ScrubOnDump = true
			var injector *faultfs.FS
			wrap := func(fs pfs.FileSystem) pfs.FileSystem {
				if everyN == 0 {
					return fs
				}
				injector = faultfs.Wrap(fs, faultfs.Config{
					Mode: faultfs.CorruptWrite, EveryN: everyN, MinBytes: 2048,
					FileSubstr: "dump00.raw", MaxInject: 4,
				})
				return injector
			}
			c := Case{"faults", enzo.RunSpec{Machine: mach, FS: "pvfs", Procs: np, Config: cfg, Backend: enzo.BackendMPIIO, Wrap: wrap}}
			variant := "recovery clean"
			if everyN > 0 {
				variant = fmt.Sprintf("recovery 1in%d", everyN)
			}
			res, err := runCase(c, variant, o)
			if err != nil {
				return nil, err
			}
			row := RecoveryRow{
				Problem: res.Problem, FS: "pvfs", Backend: res.Backend.String(),
				Codec: res.Codec, Procs: np, EveryN: everyN,
				ScrubFailures: res.ScrubFailures, Redumps: res.Redumps,
				Fallbacks: res.RestartFallbacks,
				ScrubSec:  res.Phase("scrub"), WriteSec: res.WriteTime(),
				Verified: res.Verified,
			}
			if injector != nil {
				row.Injected = injector.Injected()
			}
			rows = append(rows, row)
		}
	}
	// Generation fallback: the newest of two generations stays dirty (the
	// medium corrupts every eligible write, one re-dump allowed), so the
	// restart must recover from the older clean one.
	cfg := o.problem("AMR64")
	cfg.Codec = "none"
	cfg.Dumps = 2
	cfg.ScrubOnDump = true
	cfg.Generations = 2
	cfg.MaxRedumps = 1
	var injector *faultfs.FS
	c := Case{"faults", enzo.RunSpec{Machine: mach, FS: "pvfs", Procs: np, Config: cfg, Backend: enzo.BackendMPIIO,
		Wrap: func(fs pfs.FileSystem) pfs.FileSystem {
			injector = faultfs.Wrap(fs, faultfs.Config{
				Mode: faultfs.CorruptWrite, EveryN: 1, MinBytes: 2048,
				FileSubstr: "dump01.raw",
			})
			return injector
		},
	}}
	res, err := runCase(c, "fallback", o)
	if err != nil {
		return nil, err
	}
	rows = append(rows, RecoveryRow{
		Problem: res.Problem, FS: "pvfs", Backend: res.Backend.String(),
		Codec: res.Codec, Procs: np, EveryN: 1,
		Injected:      injector.Injected(),
		ScrubFailures: res.ScrubFailures, Redumps: res.Redumps,
		Fallbacks: res.RestartFallbacks,
		ScrubSec:  res.Phase("scrub"), WriteSec: res.WriteTime(),
		Verified: res.Verified,
	})
	return rows, nil
}

// PrintStragglerSweep renders the straggler sweep grouped by platform and
// backend, each slowdown factor against its healthy baseline.
func PrintStragglerSweep(w io.Writer, rows []StragglerRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "machine/fs\tbackend\tprocs\tserver slowdown\twrite(s)\tvs healthy\tverified")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s/%s\t%s\t%d\tx%g\t%.3f\tx%.2f\t%v\n",
			r.Machine, r.FS, r.Backend, r.Procs, r.Slowdown, r.WriteSec, r.Factor, r.Verified)
	}
	tw.Flush()
}

// PrintRecoverySweep renders the recovery sweep: scrub + re-dump cost per
// corruption rate, with the fallback case last.
func PrintRecoverySweep(w io.Writer, rows []RecoveryRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "fs\tbackend\tcodec\tcorrupt 1/N\tinjected\tscrub fails\tredumps\tfallbacks\twrite(s)\tscrub(s)\tverified")
	for _, r := range rows {
		rate := "clean"
		if r.EveryN > 0 {
			rate = fmt.Sprintf("1/%d", r.EveryN)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%d\t%d\t%d\t%.3f\t%.3f\t%v\n",
			r.FS, r.Backend, r.Codec, rate, r.Injected, r.ScrubFailures, r.Redumps,
			r.Fallbacks, r.WriteSec, r.ScrubSec, r.Verified)
	}
	tw.Flush()
}
