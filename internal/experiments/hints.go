package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"repro/internal/diag"
	"repro/internal/enzo"
	"repro/internal/machine"
)

// HintsRow is one configuration of the hint-autotuning sweep: the
// hand-picked per-machine defaults against the configuration the
// probe-based autotuner chose for the same run.
type HintsRow struct {
	Machine string
	FS      string
	Backend string
	Problem string
	Procs   int

	DefaultIOSec    float64 // read+write+restart with the hand-picked defaults
	TunedIOSec      float64 // same, after diag.AutoTune
	DefaultMakespan float64
	TunedMakespan   float64
	Deltas          string // applied tuner deltas ("-" when already optimal)
	Verified        bool   // both runs restored the pre-dump state
}

// deltaSummary renders applied deltas compactly for the sweep table.
func deltaSummary(deltas []diag.HintsDelta) string {
	if len(deltas) == 0 {
		return "-"
	}
	parts := make([]string, len(deltas))
	for i, d := range deltas {
		parts[i] = fmt.Sprintf("%s:%s->%s", d.Param, d.From, d.To)
	}
	return strings.Join(parts, " ")
}

// HintsSweep closes the tuning loop across the paper's machines: for each
// machine × {pvfs,gpfs} × {mpiio,hdf5} it runs AMR64 once with the
// hand-picked defaults, autotunes the same configuration off a short
// probe (diag.AutoTune — the PR 6 cb-mismatch closed loop generalized to
// the full hint vector), and runs the tuned configuration. A tuned row
// must never lose: where the defaults are already what the tuner would
// pick (one aggregator per physical node already matching the
// data-server count), the delta list is empty and the two runs are
// bit-identical; where they diverge (SP2 packs 4 ranks per node, so
// np=8 spans 2 nodes against 8 data servers), the tuner's fix shows up
// as real virtual seconds.
func HintsSweep(o Options) ([]HintsRow, error) {
	var rows []HintsRow
	const np = 8
	for _, mach := range []machine.Config{machine.Origin2000(), machine.SP2(), machine.ChibaCity()} {
		for _, fs := range []string{"pvfs", "gpfs"} {
			for _, backend := range []enzo.Backend{enzo.BackendMPIIO, enzo.BackendHDF5} {
				c := Case{"hints", enzo.RunSpec{Machine: mach, FS: fs, Procs: np, Config: o.problem("AMR64"), Backend: backend}}
				c.Config.AutoTune = false // the sweep probes explicitly, below
				// Name() does not carry the machine, and each row runs twice.
				defRes, err := runCase(c, mach.Name+" default", o)
				if err != nil {
					return nil, err
				}
				var deltas []diag.HintsDelta
				c.Config, deltas, _, err = diag.AutoTune(mach, fs, np, c.Config, backend)
				if err != nil {
					return nil, fmt.Errorf("hints %s %s probe: %w", c.Name(), mach.Name, err)
				}
				tunedRes, err := runCase(c, mach.Name+" tuned", o)
				if err != nil {
					return nil, err
				}
				rows = append(rows, HintsRow{
					Machine: mach.Name, FS: fs, Backend: backend.String(),
					Problem: defRes.Problem, Procs: np,
					DefaultIOSec:    defRes.IOTime(),
					TunedIOSec:      tunedRes.IOTime(),
					DefaultMakespan: defRes.Makespan,
					TunedMakespan:   tunedRes.Makespan,
					Deltas:          deltaSummary(deltas),
					Verified:        defRes.Verified && tunedRes.Verified,
				})
			}
		}
	}
	return rows, nil
}

// CheckHintsInvariant asserts the hints sweep's headline claim: the
// autotuned hint vector's total I/O time is never above the hand-picked
// defaults on any row, and strictly below on at least one pvfs row (the
// paper's tuning target). Every row must also still verify. An empty row
// set is a violation — the gate must never pass vacuously.
func CheckHintsInvariant(rows []HintsRow) []string {
	var problems []string
	checked, pvfsWins := 0, 0
	for _, r := range rows {
		checked++
		if !r.Verified {
			problems = append(problems, fmt.Sprintf(
				"%s/%s %s: tuned run failed verification", r.Machine, r.FS, r.Backend))
		}
		if r.TunedIOSec > r.DefaultIOSec {
			problems = append(problems, fmt.Sprintf(
				"%s/%s %s: tuned I/O %.3fs above default %.3fs",
				r.Machine, r.FS, r.Backend, r.TunedIOSec, r.DefaultIOSec))
		}
		if r.FS == "pvfs" && r.TunedIOSec < r.DefaultIOSec {
			pvfsWins++
		}
	}
	if checked == 0 {
		problems = append(problems, "no hints rows to check")
	} else if pvfsWins == 0 {
		problems = append(problems, "no pvfs row where tuned I/O is strictly below the default")
	}
	return problems
}

// PrintHintsSweep renders the hints sweep with the tuned I/O time against
// the defaults of the same row.
func PrintHintsSweep(w io.Writer, rows []HintsRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "machine\tfs\tbackend\tio-default(s)\tio-tuned(s)\tgain\tmakespan-tuned(s)\tdeltas\tverified")
	for _, r := range rows {
		gain := "-"
		if r.DefaultIOSec > 0 && r.TunedIOSec != r.DefaultIOSec {
			gain = fmt.Sprintf("%+.1f%%", 100*(r.TunedIOSec-r.DefaultIOSec)/r.DefaultIOSec)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.3f\t%.3f\t%s\t%.3f\t%s\t%v\n",
			r.Machine, r.FS, r.Backend, r.DefaultIOSec, r.TunedIOSec, gain,
			r.TunedMakespan, r.Deltas, r.Verified)
	}
	tw.Flush()
}
