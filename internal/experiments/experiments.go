// Package experiments regenerates every table and figure of the paper's
// evaluation section (Section 4): Table 1 (I/O volumes per problem size),
// Figure 6 (HDF4 vs MPI-IO on the Origin2000/XFS), Figure 7 (IBM
// SP-2/GPFS), Figure 8 (Linux cluster/PVFS over fast Ethernet), Figure 9
// (node-local disks through the PVFS interface) and Figure 10 (HDF5 vs
// MPI-IO writes on the Origin2000). Each driver returns the same
// rows/series the paper reports, measured in deterministic virtual
// seconds.
package experiments

import (
	"cmp"
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/amr"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/enzo"
	"repro/internal/machine"
)

// Row is one measured configuration.
type Row struct {
	Figure  string
	Problem string
	Machine string
	FS      string
	Backend string
	Procs   int
	Codec   string

	ReadSec    float64
	WriteSec   float64
	RestartSec float64

	ReadMB  float64
	WriteMB float64

	Verified bool
	Grids    int

	// Makespan is the run's total virtual time (not printed in the paper
	// tables; used for timeline utilization figures).
	Makespan float64
}

// Options controls experiment scale. Quick shrinks the problems so the
// whole suite runs in seconds — used by the test suite; the benchmarks and
// cmd/iobench run at full scale.
type Options struct {
	Quick bool

	// TraceDir, when non-empty, runs every case of every run-based sweep
	// (all but table1, which runs nothing, and tenants, which goes through
	// tenant.RunFleet) with a stack-wide tracer attached and writes two
	// files per case into the directory: a Perfetto-loadable
	// "<case>.trace.json" timeline and a "<case>.report.txt" counter
	// report. Tracing never changes virtual timings, so the measured rows
	// are identical either way.
	TraceDir string

	// Codec, when non-empty and not "none", runs every case with
	// transparent field compression (the codec and recovery sweeps ignore
	// this and fix the codec of each row themselves).
	Codec string

	// Async runs every figure case with the write-behind dump pipeline
	// (Config.AsyncIO). File contents and byte accounting are unchanged;
	// only who waits for the devices moves. The overlap sweep ignores this
	// and runs both modes itself. A case that refuses Codec or Async (see
	// Options.axes) runs, and is labelled, without it.
	Async bool

	// AutoTune runs every case with the probe-based hint autotuner: runCase
	// first runs diag.AutoTune's short reduced-depth probe and runs the
	// configuration with the resulting hint deltas applied. The hints sweep
	// ignores this and runs both modes itself; fleet jobs run untuned.
	AutoTune bool

	// DiagnoseSink, when non-nil, runs the same cases TraceDir covers with
	// the tracer attached, diagnoses each run (internal/diag) and hands the
	// ranked findings to the sink in case order — the iobench -diagnose
	// flag. Like TraceDir it never changes virtual timings.
	DiagnoseSink func(CaseFindings)
}

// problem returns the named configuration, shrunk in Quick mode (the
// shrunken problems keep the AMR structure, just at lower resolution).
func (o Options) problem(name string) enzo.Config {
	cfg, err := enzo.ProblemByName(name)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	if o.Quick {
		cfg = cfg.Quick()
	}
	return cfg
}

// axes is spec with Codec, where the sweep left it unset, and Async applied,
// each only if enzo.RunSpec.Validate accepts the result.
func (o Options) axes(spec enzo.RunSpec) enzo.RunSpec {
	for _, set := range []func(*enzo.Config){
		func(c *enzo.Config) { c.Codec = cmp.Or(c.Codec, o.Codec) },
		func(c *enzo.Config) { c.AsyncIO = c.AsyncIO || o.Async },
	} {
		try := spec
		set(&try.Config)
		if try.Validate() == nil {
			spec = try
		}
	}
	return spec
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// rowFromResult converts a run result into a Row.
func rowFromResult(figure, machineName string, res *enzo.Result) Row {
	return Row{
		Figure:  figure,
		Problem: res.Problem,
		Machine: machineName,
		FS:      res.FS,
		Backend: res.Backend.String(),
		Procs:   res.Procs,
		Codec:   res.Codec,

		ReadSec:    res.ReadTime(),
		WriteSec:   res.WriteTime(),
		RestartSec: res.RestartTime(),
		ReadMB:     mb(res.BytesRead),
		WriteMB:    mb(res.BytesWritten),
		Verified:   res.Verified,
		Grids:      res.Grids,
		Makespan:   res.Makespan,
	}
}

// Case is one configuration of a sweep: the sweep (figure) it belongs to
// around the enzo.RunSpec it runs.
type Case struct {
	Figure string
	enzo.RunSpec
}

// Name returns a stable identifier for the case.
func (c Case) Name() string {
	n := fmt.Sprintf("%s/%s/%s/np%d", c.Config.Problem, c.FS, c.Backend, c.Procs)
	if compress.Active(c.Config.Codec) {
		n += "/" + c.Config.Codec
	}
	return n
}

// Run executes the case under o's TraceDir and DiagnoseSink and converts
// the result to a Row. The row is the same with or without them — tracing
// only reads the virtual clock.
func (c Case) Run(o Options) (Row, error) {
	res, err := runCase(c, "", o)
	if err != nil {
		return Row{}, err
	}
	return rowFromResult(c.Figure, c.Machine.Name, res), nil
}

// FigureCases enumerates the configurations of one figure; the registry's
// figure sweeps and the repository benchmarks share these lists.
func FigureCases(figure string, o Options) []Case {
	type sweep struct {
		problem  string
		procs    []int
		backends []enzo.Backend
	}
	hdf4VsMPIIO := []enzo.Backend{enzo.BackendHDF4, enzo.BackendMPIIO}
	var mach machine.Config
	var fs string
	var sweeps []sweep
	switch figure {
	case "fig6":
		// The Origin2000/XFS comparison: HDF4 vs MPI-IO at increasing
		// processor counts, for AMR64 and AMR128.
		mach, fs = machine.Origin2000(), "xfs"
		sweeps = []sweep{
			{"AMR64", []int{2, 4, 8, 16, 32}, hdf4VsMPIIO},
			{"AMR128", []int{8, 16, 32}, hdf4VsMPIIO},
		}
		if o.Quick {
			sweeps = []sweep{{"AMR64", []int{2, 4, 8}, hdf4VsMPIIO}}
		}
	case "fig7":
		// The IBM SP-2/GPFS comparison: 32 and 64 processors, AMR64 and
		// AMR128 — the platform where the access-pattern/striping mismatch
		// makes MPI-IO lose to the original HDF4 design.
		mach, fs = machine.SP2(), "gpfs"
		sweeps = []sweep{
			{"AMR64", []int{32, 64}, hdf4VsMPIIO},
			{"AMR128", []int{32, 64}, hdf4VsMPIIO},
		}
		if o.Quick {
			sweeps = []sweep{{"AMR64", []int{8}, hdf4VsMPIIO}}
		}
	case "fig8":
		// The Chiba City PVFS experiment: 8 compute nodes and 8 I/O nodes
		// over fast Ethernet. Three backends run: the original HDF4, the
		// MPI-IO port with ROMIO's (later) automatic collective-buffering
		// heuristic, and the mpiio-cb variant that forces collective
		// buffering on every array (romio_cb_write=enable, the default of
		// the paper's era) — the configuration whose write times reproduce
		// the paper's Ethernet degradation.
		mach, fs = machine.ChibaCity(), "pvfs"
		three := []enzo.Backend{enzo.BackendHDF4, enzo.BackendMPIIO, enzo.BackendMPIIOCB}
		sweeps = []sweep{
			{"AMR64", []int{8}, three},
			{"AMR128", []int{8}, three},
		}
		if o.Quick {
			sweeps = sweeps[:1]
		}
	case "fig9":
		// The node-local disk experiment on the same cluster: each compute
		// node accesses its own disk through the PVFS interface.
		mach, fs = machine.ChibaCity(), "local"
		sweeps = []sweep{
			{"AMR64", []int{2, 4, 8}, hdf4VsMPIIO},
			{"AMR128", []int{8}, hdf4VsMPIIO},
		}
		if o.Quick {
			sweeps = sweeps[:1]
		}
	case "fig10":
		// The HDF5 vs MPI-IO write comparison on the Origin2000/XFS.
		mach, fs = machine.Origin2000(), "xfs"
		mpiioVsHDF5 := []enzo.Backend{enzo.BackendMPIIO, enzo.BackendHDF5}
		sweeps = []sweep{
			{"AMR64", []int{4, 8, 16, 32}, mpiioVsHDF5},
			{"AMR128", []int{16, 32}, mpiioVsHDF5},
		}
		if o.Quick {
			sweeps = []sweep{{"AMR64", []int{4, 8}, mpiioVsHDF5}}
		}
	default:
		panic("experiments: unknown figure " + figure)
	}
	var cases []Case
	for _, s := range sweeps {
		for _, np := range s.procs {
			for _, b := range s.backends {
				cases = append(cases, Case{figure, enzo.RunSpec{
					Machine: mach, FS: fs, Procs: np, Config: o.problem(s.problem), Backend: b,
				}})
			}
		}
	}
	return cases
}

// runFigure executes every case of a figure.
func runFigure(figure string, o Options) ([]Row, error) {
	var rows []Row
	for _, c := range FigureCases(figure, o) {
		row, err := c.Run(o)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table1Row reports the I/O volume of one problem size, computed from the
// hierarchy metadata exactly as the measured runs move it: the initial
// read and the restart read each cover the whole hierarchy, and every
// checkpoint dump writes it once.
type Table1Row struct {
	Problem   string
	Grids     int
	Particles int64
	ReadMB    float64
	WriteMB   float64
}

// Table1 regenerates the paper's Table 1 for AMR64, AMR128 and AMR256.
// It uses the structure-only hierarchy builder, so even AMR256 is cheap.
func Table1(o Options) []Table1Row {
	var rows []Table1Row
	for _, name := range []string{"AMR64", "AMR128", "AMR256"} {
		cfg := o.problem(name)
		h := amr.BuildHierarchyStructure(cfg.Dims, cfg.NParticles, cfg.PreRefine, cfg.Threshold, cfg.Seed)
		m := core.FromHierarchy(h)
		total := m.TotalBytes()
		rows = append(rows, Table1Row{
			Problem:   cfg.Problem,
			Grids:     len(m.Grids),
			Particles: h.TotalParticles(),
			ReadMB:    mb(total), // initial grids, read once per run
			WriteMB:   mb(total * int64(cfg.Dumps)),
		})
	}
	return rows
}

// CodecSweep measures transparent compression across codecs and file
// systems: every registered codec (plus the uncompressed baseline) on the
// Chiba City cluster over PVFS (shared storage behind fast Ethernet, where
// trading CPU for bytes pays) and over node-local disks (where the local
// stream rate makes it a wash). AMR128, 8 processors, MPI-IO backend —
// the paper's Ethernet-degradation configuration.
func CodecSweep(o Options) ([]Row, error) {
	var rows []Row
	for _, fs := range []string{"pvfs", "local"} {
		for _, codec := range compress.Names() {
			cfg := o.problem("AMR128")
			cfg.Codec = codec
			c := Case{"codecs", enzo.RunSpec{
				Machine: machine.ChibaCity(), FS: fs, Procs: 8, Config: cfg, Backend: enzo.BackendMPIIO,
			}}
			row, err := c.Run(o)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PrintCodecSweep renders the codec sweep grouped by file system, with
// each codec's end-to-end I/O time and volume against the uncompressed
// baseline of the same file system.
func PrintCodecSweep(w io.Writer, rows []Row) {
	base := make(map[string]Row)
	for _, r := range rows {
		if r.Codec == "none" {
			base[r.FS] = r
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "fs\tcodec\twrite(s)\trestart-read(s)\tio(s)\tMB written\tvs none\tverified")
	for _, r := range rows {
		tot := r.WriteSec + r.RestartSec
		rel := "-"
		if b, ok := base[r.FS]; ok && r.Codec != "none" {
			btot := b.WriteSec + b.RestartSec
			if btot > 0 {
				rel = fmt.Sprintf("%+.1f%%", 100*(tot-btot)/btot)
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.3f\t%.1f\t%s\t%v\n",
			r.FS, r.Codec, r.WriteSec, r.RestartSec, tot, r.WriteMB, rel, r.Verified)
	}
	tw.Flush()
}

// OverlapRow is one configuration of the compute/I-O overlap sweep: the
// synchronous dump baseline against the write-behind pipeline with enough
// per-cell work that the overlapped compute covers the dump.
type OverlapRow struct {
	Problem string
	FS      string
	Backend string
	Procs   int

	SyncWriteSec  float64 // synchronous dump wall-time
	AsyncWriteSec float64 // async "write" phase (contains the overlap compute)
	ExposedSec    float64 // dump time the ranks still waited on I/O
	HiddenSec     float64 // device time that ran under the compute
	HiddenFrac    float64 // fraction of the sync dump wall-time hidden: 1 - exposed/sync
	ComputeSec    float64 // the overlapped compute window (evolve-equivalent)
	Verified      bool
}

// OverlapSweep measures the write-behind dump pipeline on the Chiba City
// cluster: shared PVFS and node-local disks, raw MPI-IO and HDF5 backends,
// AMR128 at 8 processors. Each case first runs synchronously to calibrate,
// then scales FlopsPerCell so the overlapped compute window covers the dump
// (the regime write-behind targets) and reruns with AsyncIO: the exposed
// dump time collapses toward the issue cost while the device time hides
// under the compute.
func OverlapSweep(o Options) ([]OverlapRow, error) {
	var rows []OverlapRow
	mach := machine.ChibaCity()
	const np = 8
	for _, fs := range []string{"pvfs", "local"} {
		for _, backend := range []enzo.Backend{enzo.BackendMPIIO, enzo.BackendHDF5} {
			c := Case{"overlap", enzo.RunSpec{Machine: mach, FS: fs, Procs: np, Config: o.problem("AMR128"), Backend: backend}}
			// The blocking calibration run is not the one traced or diagnosed.
			syncRes, err := runCase(c, "sync", Options{Codec: o.Codec})
			if err != nil {
				return nil, err
			}
			// Calibrate: compute >= I/O. The evolve phase measures one
			// cycle's compute at the current FlopsPerCell; scale it to 1.5x
			// the synchronous dump time so the drain has headroom.
			if ev := syncRes.Phase("evolve"); ev > 0 && syncRes.WriteTime() > ev {
				scale := 1.5 * syncRes.WriteTime() / ev
				c.Config.FlopsPerCell = int64(float64(c.Config.FlopsPerCell)*scale) + 1
			}
			c.Config.AsyncIO = true
			asyncRes, err := runCase(c, "", o)
			if err != nil {
				return nil, err
			}
			// The headline number: how much of the synchronous dump's
			// wall-time no longer shows up on the critical path.
			frac := 0.0
			if sw := syncRes.WriteTime(); sw > 0 {
				frac = 1 - asyncRes.ExposedWrite/sw
				if frac < 0 {
					frac = 0
				}
			}
			rows = append(rows, OverlapRow{
				Problem: asyncRes.Problem, FS: fs, Backend: backend.String(), Procs: np,
				SyncWriteSec:  syncRes.WriteTime(),
				AsyncWriteSec: asyncRes.WriteTime(),
				ExposedSec:    asyncRes.ExposedWrite,
				HiddenSec:     asyncRes.HiddenWrite,
				HiddenFrac:    frac,
				ComputeSec:    asyncRes.WriteTime() - asyncRes.ExposedWrite,
				Verified:      asyncRes.Verified,
			})
		}
	}
	return rows, nil
}

// PrintOverlapSweep renders the overlap sweep: per case, the synchronous
// dump baseline, the exposed remainder under write-behind, and how much of
// the dump's device time hid behind the compute.
func PrintOverlapSweep(w io.Writer, rows []OverlapRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "fs\tbackend\tprocs\tsync write(s)\texposed(s)\thidden(s)\thidden%\tverified")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.3f\t%.3f\t%.3f\t%.1f%%\t%v\n",
			r.FS, r.Backend, r.Procs, r.SyncWriteSec, r.ExposedSec, r.HiddenSec,
			100*r.HiddenFrac, r.Verified)
	}
	tw.Flush()
}

// PrintTable1 renders Table 1 like the paper's.
func PrintTable1(w io.Writer, rows []Table1Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Problem\tGrids\tParticles\tRead (MB)\tWrite (MB)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%.1f\n", r.Problem, r.Grids, r.Particles, r.ReadMB, r.WriteMB)
	}
	tw.Flush()
}

// PrintRows renders measured rows as a table.
func PrintRows(w io.Writer, rows []Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "figure\tproblem\tmachine/fs\tbackend\tprocs\tinit-read(s)\twrite(s)\trestart-read(s)\tMB read\tMB written\tverified")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s/%s\t%s\t%d\t%.3f\t%.3f\t%.3f\t%.1f\t%.1f\t%v\n",
			r.Figure, r.Problem, r.Machine, r.FS, r.Backend, r.Procs,
			r.ReadSec, r.WriteSec, r.RestartSec, r.ReadMB, r.WriteMB, r.Verified)
	}
	tw.Flush()
}

// Find returns the first row matching backend, problem and procs.
func Find(rows []Row, backend, problem string, procs int) (Row, bool) {
	for _, r := range rows {
		if r.Backend == backend && r.Problem == problem && r.Procs == procs {
			return r, true
		}
	}
	return Row{}, false
}
