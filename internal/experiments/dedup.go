package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/enzo"
	"repro/internal/machine"
)

// DedupRow is one configuration of the dedup sweep: the plain dump path
// against the content-addressed store at a given retention depth. DeviceMB
// is the bytes the devices actually absorbed during the measured phases —
// directly comparable between the two paths — while LogicalMB/DedupSavedMB
// break down where the castore's savings came from.
type DedupRow struct {
	Problem  string
	Machine  string
	FS       string
	Backend  string
	Procs    int
	Depth    int // dump generations retained (Config.Dumps)
	CAStore  bool
	Replicas int // 0 on plain rows

	WriteSec     float64 // checkpoint dump wall-time, all generations
	RestartSec   float64 // restart read wall-time
	DeviceMB     float64 // bytes written to the devices (replicas included)
	LogicalMB    float64 // raw bytes the dumps presented to the store (castore rows)
	DedupSavedMB float64 // raw bytes elided by cross-generation dedup (castore rows)
	Failovers    int64   // chunk/manifest reads rerouted off a failed replica
	Verified     bool
}

// DedupSweep measures cross-generation checkpoint dedup: AMR64 at retention
// depths 1–3 and AMR128 at depth 2, plain vs content-addressed, across the
// paper's machine × file-system pairs, plus one k=2 replication row. The
// evolve loop between dumps leaves the grid state unchanged, so successive
// generations are byte-identical and the measured savings are the upper
// bound of what content dedup can recover at each depth; rows are
// deterministic virtual-time results, bit-identical across invocations.
func DedupSweep(o Options) ([]DedupRow, error) {
	type platform struct {
		mach machine.Config
		fs   string
	}
	platforms := []platform{
		{machine.ChibaCity(), "pvfs"},
		{machine.SP2(), "gpfs"},
	}
	const np = 8
	var rows []DedupRow

	run := func(mach machine.Config, fs, problem string, depth, replicas int, castore bool) error {
		cfg := o.problem(problem)
		cfg.Dumps = depth
		cfg.CAStore = castore
		cfg.Replicas = replicas
		variant := fmt.Sprintf("depth%d plain", depth)
		if castore {
			variant = fmt.Sprintf("depth%d castore k%d", depth, replicas)
		}
		c := Case{"dedup", enzo.RunSpec{Machine: mach, FS: fs, Procs: np, Config: cfg, Backend: enzo.BackendMPIIO}}
		res, err := runCase(c, variant, o)
		if err != nil {
			return err
		}
		row := DedupRow{
			Problem: res.Problem, Machine: mach.Name, FS: fs,
			Backend: res.Backend.String(), Procs: np, Depth: depth,
			CAStore:  castore,
			WriteSec: res.WriteTime(), RestartSec: res.RestartTime(),
			DeviceMB: mb(res.BytesWritten), Verified: res.Verified,
		}
		if castore {
			row.Replicas = replicas
			row.LogicalMB = mb(res.CASLogicalBytes)
			row.DedupSavedMB = mb(res.CASDedupedBytes)
			row.Failovers = res.CASFailovers
		}
		rows = append(rows, row)
		return nil
	}

	for _, pl := range platforms {
		for _, depth := range []int{1, 2, 3} {
			for _, castore := range []bool{false, true} {
				if err := run(pl.mach, pl.fs, "AMR64", depth, 1, castore); err != nil {
					return nil, err
				}
			}
		}
	}
	// Scale: the larger problem at depth 2 on the PVFS cluster.
	for _, castore := range []bool{false, true} {
		if err := run(machine.ChibaCity(), "pvfs", "AMR128", 2, 1, castore); err != nil {
			return nil, err
		}
	}
	// Replication: the same dedup at k=2, paying double the physical bytes
	// for single-server-failure tolerance.
	if err := run(machine.ChibaCity(), "pvfs", "AMR64", 2, 2, true); err != nil {
		return nil, err
	}
	return rows, nil
}

// CheckDedupInvariant asserts the dedup sweep's headline claim: every
// unreplicated castore row at retention depth >= 2 lands strictly fewer
// device bytes than the plain row of the same case. An empty row set is a
// violation — the gate must never pass vacuously.
func CheckDedupInvariant(rows []DedupRow) []string {
	type key struct {
		Machine, FS, Problem string
		Depth                int
	}
	plain := make(map[key]DedupRow)
	for _, r := range rows {
		if !r.CAStore {
			plain[key{r.Machine, r.FS, r.Problem, r.Depth}] = r
		}
	}
	var problems []string
	checked := 0
	for _, r := range rows {
		if !r.CAStore || r.Replicas > 1 || r.Depth < 2 {
			continue
		}
		p, ok := plain[key{r.Machine, r.FS, r.Problem, r.Depth}]
		if !ok {
			problems = append(problems, fmt.Sprintf(
				"%s/%s %s depth=%d: castore row has no plain twin", r.Machine, r.FS, r.Problem, r.Depth))
			continue
		}
		checked++
		if r.DeviceMB >= p.DeviceMB {
			problems = append(problems, fmt.Sprintf(
				"%s/%s %s depth=%d: castore device MB %.3f not strictly below plain %.3f",
				r.Machine, r.FS, r.Problem, r.Depth, r.DeviceMB, p.DeviceMB))
		}
	}
	if checked == 0 {
		problems = append(problems, "no castore rows at depth >= 2 to check")
	}
	return problems
}

// PrintDedupSweep renders the dedup sweep, plain and castore rows
// interleaved per case so the device-byte savings read off directly.
func PrintDedupSweep(w io.Writer, rows []DedupRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "machine/fs\tproblem\tdepth\tpath\twrite(s)\trestart(s)\tdevice MB\tlogical MB\tdedup MB\tverified")
	for _, r := range rows {
		path := "plain"
		if r.CAStore {
			path = "castore"
			if r.Replicas > 1 {
				path = fmt.Sprintf("castore k=%d", r.Replicas)
			}
		}
		logical, saved := "-", "-"
		if r.CAStore {
			logical = fmt.Sprintf("%.1f", r.LogicalMB)
			saved = fmt.Sprintf("%.1f", r.DedupSavedMB)
		}
		fmt.Fprintf(tw, "%s/%s\t%s\t%d\t%s\t%.3f\t%.3f\t%.1f\t%s\t%s\t%v\n",
			r.Machine, r.FS, r.Problem, r.Depth, path,
			r.WriteSec, r.RestartSec, r.DeviceMB, logical, saved, r.Verified)
	}
	tw.Flush()
}
