package experiments

import (
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/enzo"
	"repro/internal/machine"
)

// ScaleRow is one (problem, rank count) cell of the scale sweep. Makespan
// and Events are virtual-time results and therefore deterministic;
// EventsPerSec is the wall-clock simulator throughput of the run and is
// the one machine-dependent column — benchdiff zeroes it before comparing
// or writing baselines, and the CI scale-smoke job uploads it as an
// artifact instead.
type ScaleRow struct {
	Problem string
	Machine string
	FS      string
	Backend string
	Procs   int

	Makespan float64 // virtual seconds
	Events   int64   // scheduler dispatches (deterministic work measure)
	Verified bool

	EventsPerSec float64 `json:",omitempty"`
}

// ScaleXLEnv, when set to a non-empty value, adds the AMR512/np=1024
// row to the scale sweep. It is opt-in: the row needs tens of gigabytes of
// host memory (the footprint guard is lifted for it) and a long run.
const ScaleXLEnv = "REPRO_SCALE_XL"

// ScaleSweep measures how the simulated application scales with rank
// count: np in {8, 64, 256} on AMR128 and AMR256, on a notional
// 1024-node commodity cluster with PVFS and the MPI-IO backend. The
// virtual-time columns extend the paper's np<=8 evaluation into the
// pre-exascale regime its analysis points at; the wall-clock events/sec
// column tracks whether the simulator itself stays fast enough to keep
// these rank counts affordable in CI. Set REPRO_SCALE_XL=1 for the
// AMR512/np=1024 long row.
func ScaleSweep(o Options) ([]ScaleRow, error) {
	mach := machine.Cluster1024()
	const fs = "pvfs"
	const backend = enzo.BackendMPIIO
	type cell struct {
		problem string
		np      int
		xl      bool
	}
	nps := []int{8, 64, 256}
	if o.Quick {
		// The smoke run keeps the shape (two problems, rising np) but stops
		// before the np=256 rows, the slowest of the sweep.
		nps = []int{8, 64}
	}
	var cells []cell
	for _, problem := range []string{"AMR128", "AMR256"} {
		for _, np := range nps {
			cells = append(cells, cell{problem: problem, np: np})
		}
	}
	if os.Getenv(ScaleXLEnv) != "" {
		cells = append(cells, cell{problem: "AMR512", np: 1024, xl: true})
	}
	var rows []ScaleRow
	for _, c := range cells {
		cfg := o.problem(c.problem)
		if c.xl {
			// The explicit env opt-in stands in for raising the budget.
			cfg.MemBudget = -1
		}
		start := time.Now()
		res, err := runCase(Case{"scale", enzo.RunSpec{Machine: mach, FS: fs, Procs: c.np, Config: cfg, Backend: backend}}, "", o)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start).Seconds()
		row := ScaleRow{
			Problem: res.Problem, Machine: mach.Name, FS: fs, Backend: backend.String(),
			Procs:    c.np,
			Makespan: res.Makespan,
			Events:   res.Events,
			Verified: res.Verified,
		}
		if wall > 0 {
			row.EventsPerSec = float64(res.Events) / wall
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// StripWallClock zeroes the non-deterministic wall-clock column so the
// remaining fields can be compared exactly across machines (benchdiff).
func StripWallClock(rows []ScaleRow) []ScaleRow {
	out := make([]ScaleRow, len(rows))
	for i, r := range rows {
		r.EventsPerSec = 0
		out[i] = r
	}
	return out
}

// PrintScaleSweep renders the scale sweep as an aligned table.
func PrintScaleSweep(w io.Writer, rows []ScaleRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "problem\tmachine\tfs\tbackend\tnp\tmakespan(s)\tevents\tevents/sec\tverified")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%.3f\t%d\t%.0f\t%v\n",
			r.Problem, r.Machine, r.FS, r.Backend, r.Procs,
			r.Makespan, r.Events, r.EventsPerSec, r.Verified)
	}
	tw.Flush()
}
