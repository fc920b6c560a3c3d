package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/enzo"
	"repro/internal/machine"
)

// ReadRow is one configuration of the restart-read sweep: the blocking
// restart read-back against the read-ahead pipeline, next to the HDF4
// baseline the paper measured.
type ReadRow struct {
	Problem string
	FS      string
	Backend string
	Procs   int

	InitReadSec  float64 // initial hierarchy read (blocking on every backend)
	RestartSec   float64 // blocking restart read-back
	PipelinedSec float64 // restart with the read-ahead pipeline (AsyncIO)
	ExposedSec   float64 // pipelined restart time the ranks still waited on reads
	HiddenSec    float64 // device read time that completed under the pipeline
	Verified     bool    // both runs restored the pre-dump state
}

// ReadSweep measures the parallel restart read path on the Chiba City
// cluster: shared PVFS and node-local disks, the HDF4 baseline against the
// coalesced MPI-IO and HDF5 readers, AMR128 at 8 processors — the read-side
// counterpart of the paper's Figure 8/9 write comparison. Each case runs
// twice, blocking and with the read-ahead pipeline. A backend that refuses
// AsyncIO (enzo.RunSpec.Validate: HDF4) runs once, blocking: its pipelined
// time is its blocking restart and its exposed/hidden split stays zero.
//
// The sweep shows both effects the restart rework targets: coalescing a
// grid's arrays into one request beats the baseline's per-array reads
// everywhere, while the prefetch pipeline's extra win depends on the
// storage — it hides decode and unpack time on node-local disks, but on
// shared striped servers one rank's read-ahead can queue before another
// rank's critical-path read and give part of the gain back.
func ReadSweep(o Options) ([]ReadRow, error) {
	var rows []ReadRow
	mach := machine.ChibaCity()
	const np = 8
	for _, fs := range []string{"pvfs", "local"} {
		for _, backend := range []enzo.Backend{enzo.BackendHDF4, enzo.BackendMPIIO, enzo.BackendHDF5} {
			c := Case{"reads", enzo.RunSpec{Machine: mach, FS: fs, Procs: np, Config: o.problem("AMR128"), Backend: backend}}
			ahead := c
			ahead.Config.AsyncIO = true
			// The pipelined run is the one traced and diagnosed; where
			// AsyncIO is refused, the one blocking run is.
			blocking, variant := Options{Codec: o.Codec}, "blocking"
			if ahead.Validate() != nil {
				blocking, variant = o, ""
			}
			syncRes, err := runCase(c, variant, blocking)
			if err != nil {
				return nil, err
			}
			asyncRes := syncRes
			if variant != "" {
				if asyncRes, err = runCase(ahead, "", o); err != nil {
					return nil, err
				}
			}
			rows = append(rows, ReadRow{
				Problem: syncRes.Problem, FS: fs, Backend: backend.String(), Procs: np,
				InitReadSec:  syncRes.ReadTime(),
				RestartSec:   syncRes.RestartTime(),
				PipelinedSec: asyncRes.RestartTime(),
				ExposedSec:   asyncRes.ExposedRead,
				HiddenSec:    asyncRes.HiddenRead,
				Verified:     syncRes.Verified && asyncRes.Verified,
			})
		}
	}
	return rows, nil
}

// PrintReadSweep renders the read sweep grouped by file system, with each
// backend's best restart time against the HDF4 baseline of the same file
// system.
func PrintReadSweep(w io.Writer, rows []ReadRow) {
	base := make(map[string]ReadRow)
	for _, r := range rows {
		if r.Backend == "hdf4" {
			base[r.FS] = r
		}
	}
	best := func(r ReadRow) float64 {
		if r.PipelinedSec < r.RestartSec {
			return r.PipelinedSec
		}
		return r.RestartSec
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "fs\tbackend\tinit-read(s)\trestart(s)\tpipelined(s)\texposed(s)\thidden(s)\tvs hdf4\tverified")
	for _, r := range rows {
		rel := "-"
		if b, ok := base[r.FS]; ok && r.Backend != "hdf4" && b.RestartSec > 0 {
			rel = fmt.Sprintf("%+.1f%%", 100*(best(r)-b.RestartSec)/b.RestartSec)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%s\t%v\n",
			r.FS, r.Backend, r.InitReadSec, r.RestartSec, r.PipelinedSec,
			r.ExposedSec, r.HiddenSec, rel, r.Verified)
	}
	tw.Flush()
}
