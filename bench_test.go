// Package repro's benchmarks regenerate the paper's evaluation: one
// benchmark per table and figure, plus ablations of the design choices
// called out in DESIGN.md. All reported metrics are deterministic virtual
// seconds on the modelled 2002 platforms (vsec); the ns/op column only
// measures the simulator itself.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Set REPRO_QUICK=1 to shrink the problems for a fast smoke pass.
package repro

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/enzo"
	"repro/internal/experiments"
	"repro/internal/hdf5"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
	"repro/internal/psort"
	"repro/internal/sim"
)

func benchOptions() experiments.Options {
	return experiments.Options{Quick: os.Getenv("REPRO_QUICK") != ""}
}

// BenchmarkEngine measures the simulator itself in wall-clock terms:
// scheduler dispatches per real second while running full checkpoint
// cycles at rising rank counts. Unlike every other benchmark in this
// file, events/sec here is real throughput, not virtual seconds — the
// number to watch when changing the engine's scheduling loop. events/op
// is the deterministic work measure: it must not move unless the
// simulated application itself changes (benchdiff gates the same
// invariant through the scale sweep).
//
// AMR64/np=8 is the headline case every optimization in DESIGN.md is
// quoted against; the np=64 and np=256 columns track how the scheduler
// holds up as the ready set deepens, the AMR256-quick rows exercise the
// scale sweep's problem shape on the cluster1024 platform, and AMR128/np=256
// is that sweep's largest AMR128 row itself.
func BenchmarkEngine(b *testing.B) {
	amr256quick := enzo.AMR256().Quick()
	cases := []struct {
		problem string
		cfg     enzo.Config
		mach    machine.Config
		np      int
	}{
		{"AMR64", benchProblem(), machine.ChibaCity(), 8},
		// Chiba City models 16 nodes; the wider rows need the 1024-node cluster.
		{"AMR64", benchProblem(), machine.Cluster1024(), 64},
		{"AMR64", benchProblem(), machine.Cluster1024(), 256},
		{"AMR256-quick", amr256quick, machine.Cluster1024(), 8},
		{"AMR256-quick", amr256quick, machine.Cluster1024(), 64},
		{"AMR256-quick", amr256quick, machine.Cluster1024(), 256},
		// The scale sweep's largest AMR128 row, full size whatever REPRO_QUICK
		// says: CI holds its events/op under a budget (scale-smoke), so a
		// collective that grows O(np²) again fails there within a minute.
		{"AMR128", enzo.AMR128(), machine.Cluster1024(), 256},
	}
	for _, c := range cases {
		c := c
		b.Run(fmt.Sprintf("%s/np=%d", c.problem, c.np), func(b *testing.B) {
			var events int64
			for i := 0; i < b.N; i++ {
				res, err := enzo.Run(enzo.RunSpec{Machine: c.mach, FS: "pvfs", Procs: c.np, Config: c.cfg, Backend: enzo.BackendMPIIO})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Verified {
					b.Fatal("run did not verify")
				}
				events += res.Events
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(events)/secs, "events/sec")
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}

// BenchmarkTable1 regenerates Table 1: the amount of data read and written
// per problem size.
func BenchmarkTable1(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1(benchOptions())
	}
	for _, r := range rows {
		b.ReportMetric(r.ReadMB, r.Problem+"-read-MB")
		b.ReportMetric(r.WriteMB, r.Problem+"-write-MB")
	}
}

// benchFigure runs every case of a figure as a sub-benchmark, reporting
// the virtual-time phases.
func benchFigure(b *testing.B, figure string) {
	for _, c := range experiments.FigureCases(figure, benchOptions()) {
		c := c
		b.Run(c.Name(), func(b *testing.B) {
			var row experiments.Row
			var err error
			for i := 0; i < b.N; i++ {
				row, err = c.Run(experiments.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			if !row.Verified {
				b.Fatalf("%s: data verification failed", c.Name())
			}
			b.ReportMetric(row.ReadSec, "initread-vsec")
			b.ReportMetric(row.WriteSec, "write-vsec")
			b.ReportMetric(row.RestartSec, "restart-vsec")
		})
	}
}

// BenchmarkFigure6 regenerates Figure 6: HDF4 vs MPI-IO on the SGI
// Origin2000 with XFS.
func BenchmarkFigure6(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFigure7 regenerates Figure 7: HDF4 vs MPI-IO on the IBM SP-2
// with GPFS.
func BenchmarkFigure7(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFigure8 regenerates Figure 8: the Linux cluster with PVFS over
// fast Ethernet (hdf4 vs mpiio vs mpiio-cb).
func BenchmarkFigure8(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkFigure9 regenerates Figure 9: node-local disks through the
// PVFS interface.
func BenchmarkFigure9(b *testing.B) { benchFigure(b, "fig9") }

// BenchmarkFigure10 regenerates Figure 10: HDF5 vs MPI-IO write
// performance on the Origin2000.
func BenchmarkFigure10(b *testing.B) { benchFigure(b, "fig10") }

// --- Ablations ---

// readBBB measures one strategy for reading a (Block,Block,Block)
// partitioned 3-D array on origin2000/xfs and returns virtual seconds.
func readBBB(b *testing.B, dim, nprocs int, strategy string) float64 {
	b.Helper()
	eng := sim.NewEngine()
	mach := machine.New(machine.Origin2000())
	fs := pfs.NewXFS(mach, pfs.DefaultXFS())
	pz, py, px := mpi.ProcGrid3D(nprocs)
	var elapsed float64
	mpi.NewWorld(eng, mach, nprocs, func(r *mpi.Rank) {
		hints := mpiio.DefaultHints()
		if strategy == "independent" {
			hints.DataSieving = false
		}
		f, err := mpiio.Open(r, fs, "a", mpiio.ModeCreate, hints)
		if err != nil {
			panic(err)
		}
		if r.Rank() == 0 {
			f.WriteAt(make([]byte, dim*dim*dim*4), 0)
		}
		r.Barrier()
		sub := mpi.BlockDecompose3D([3]int{dim, dim, dim}, pz, py, px, r.Rank(), 4)
		buf := make([]byte, sub.Bytes())
		t0 := r.Now()
		if strategy == "collective" {
			f.ReadAtAll(sub.Flatten(), buf)
		} else {
			f.ReadRuns(sub.Flatten(), buf)
		}
		if dt := r.AllreduceFloat64(r.Now()-t0, mpi.OpMax); r.Rank() == 0 {
			elapsed = dt
		}
		f.Close()
	})
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	return elapsed
}

// BenchmarkAblationCollective compares two-phase collective I/O against
// naive per-run independent I/O for the regular pattern (the Figure 5
// mechanism).
func BenchmarkAblationCollective(b *testing.B) {
	for _, strategy := range []string{"independent", "sieving", "collective"} {
		strategy := strategy
		b.Run(strategy, func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = readBBB(b, 64, 8, strategy)
			}
			b.ReportMetric(v, "vsec")
		})
	}
}

// BenchmarkAblationSieving isolates the data sieving hint on independent
// noncontiguous reads.
func BenchmarkAblationSieving(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		strategy := "independent"
		if on {
			name, strategy = "on", "sieving"
		}
		b.Run(name, func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = readBBB(b, 48, 8, strategy)
			}
			b.ReportMetric(v, "vsec")
		})
	}
}

// BenchmarkAblationSubgridWriteAll compares the MPI-IO port's independent
// subgrid writes against routing every array through MPI_File_write_all
// with forced collective buffering, on the Ethernet cluster — the choice
// that decides Figure 8's write outcome.
func BenchmarkAblationSubgridWriteAll(b *testing.B) {
	for _, backend := range []enzo.Backend{enzo.BackendMPIIO, enzo.BackendMPIIOCB} {
		backend := backend
		b.Run(backend.String(), func(b *testing.B) {
			var res *enzo.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = enzo.Run(enzo.RunSpec{Machine: machine.ChibaCity(), FS: "pvfs", Procs: 8, Config: benchProblem(), Backend: backend})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.WriteTime(), "write-vsec")
		})
	}
}

// BenchmarkAblationSharedFile compares the shared-dump-file MPI-IO port
// against the one-file-per-grid HDF4 design on GPFS, where shared-file
// token and metanode traffic is the decisive cost.
func BenchmarkAblationSharedFile(b *testing.B) {
	for _, backend := range []enzo.Backend{enzo.BackendHDF4, enzo.BackendMPIIO} {
		backend := backend
		b.Run(backend.String(), func(b *testing.B) {
			var res *enzo.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = enzo.Run(enzo.RunSpec{Machine: machine.SP2(), FS: "gpfs", Procs: 32, Config: benchProblem(), Backend: backend})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.WriteTime(), "write-vsec")
		})
	}
}

// BenchmarkAblationParticleSort compares the parallel sample sort against
// gathering and sorting at the root, for the particle-dump preparation.
func BenchmarkAblationParticleSort(b *testing.B) {
	const n = 20000
	const rowSize = 48
	for _, mode := range []string{"parallel-sample-sort", "gather-and-root-sort"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			var elapsed float64
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				mach := machine.New(machine.Origin2000())
				mpi.NewWorld(eng, mach, 16, func(r *mpi.Rank) {
					rows := make([]byte, n/16*rowSize)
					for k := 0; k < n/16; k++ {
						id := int64((k*16+r.Rank())*2654435761) % 1000000
						if id < 0 {
							id = -id
						}
						for j := 0; j < 8; j++ {
							rows[k*rowSize+j] = byte(id >> (8 * j))
						}
					}
					t0 := r.Now()
					if mode == "parallel-sample-sort" {
						psort.SampleSort(r, rows, rowSize, psort.IDKey(0))
					} else {
						gathered := r.Gatherv(0, rows)
						if r.Rank() == 0 {
							var all [][]byte
							for _, chunk := range gathered {
								for p := 0; p+rowSize <= len(chunk); p += rowSize {
									all = append(all, chunk[p:p+rowSize])
								}
							}
							r.Compute(int64(len(all)) * 20) // root-local sort cost
						}
					}
					if dt := r.AllreduceFloat64(r.Now()-t0, mpi.OpMax); r.Rank() == 0 {
						elapsed = dt
					}
				})
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(elapsed, "vsec")
		})
	}
}

// BenchmarkAblationStripeSize sweeps the GPFS stripe unit to show the
// access-pattern/striping mismatch sensitivity the paper's Section 4.2
// describes.
func BenchmarkAblationStripeSize(b *testing.B) {
	for _, unit := range []int64{64 << 10, 256 << 10, 1 << 20} {
		unit := unit
		b.Run(fmt.Sprintf("unit-%dKB", unit>>10), func(b *testing.B) {
			var elapsed float64
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				mach := machine.New(machine.SP2())
				cfg := pfs.DefaultGPFS()
				cfg.Unit = unit
				fs := pfs.NewGPFS(mach, cfg)
				const dim = 64
				pz, py, px := mpi.ProcGrid3D(32)
				mpi.NewWorld(eng, mach, 32, func(r *mpi.Rank) {
					f, err := mpiio.Open(r, fs, "x", mpiio.ModeCreate, mpiio.DefaultHints())
					if err != nil {
						panic(err)
					}
					sub := mpi.BlockDecompose3D([3]int{dim, dim, dim}, pz, py, px, r.Rank(), 4)
					t0 := r.Now()
					f.WriteAtAll(sub.Flatten(), make([]byte, sub.Bytes()))
					if dt := r.AllreduceFloat64(r.Now()-t0, mpi.OpMax); r.Rank() == 0 {
						elapsed = dt
					}
					f.Close()
				})
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(elapsed, "vsec")
		})
	}
}

// benchProblem returns the ablation problem size (AMR64, or a shrunken
// version under REPRO_QUICK).
func benchProblem() enzo.Config {
	cfg := enzo.AMR64()
	if os.Getenv("REPRO_QUICK") != "" {
		cfg = cfg.Quick()
	}
	return cfg
}

// BenchmarkAblationHDF5Overheads attributes Figure 10's slowdown to the
// four Section 4.5 overheads by disabling them one at a time (and then all
// at once) during an AMR dump through the HDF5 backend's library layer.
func BenchmarkAblationHDF5Overheads(b *testing.B) {
	const dim = 32
	const nprocs = 8
	const nArrays = 8
	runCfg := func(cfg hdf5.Config) float64 {
		eng := sim.NewEngine()
		mach := machine.New(machine.Origin2000())
		fs := pfs.NewXFS(mach, pfs.DefaultXFS())
		pz, py, px := mpi.ProcGrid3D(nprocs)
		var elapsed float64
		mpi.NewWorld(eng, mach, nprocs, func(r *mpi.Rank) {
			h, err := hdf5.Create(r, fs, "x.h5", cfg, mpiio.DefaultHints())
			if err != nil {
				panic(err)
			}
			sel := mpi.BlockDecompose3D([3]int{dim, dim, dim}, pz, py, px, r.Rank(), 4)
			data := make([]byte, sel.Bytes())
			t0 := r.Now()
			for i := 0; i < nArrays; i++ {
				ds, err := h.CreateDataset(fmt.Sprintf("f%d", i), []int{dim, dim, dim}, 4)
				if err != nil {
					panic(err)
				}
				ds.WriteHyperslab(sel, data)
				h.WriteAttribute(fmt.Sprintf("a%d", i), []byte("v"))
				ds.Close()
			}
			if dt := r.AllreduceFloat64(r.Now()-t0, mpi.OpMax); r.Rank() == 0 {
				elapsed = dt
			}
			h.Close()
		})
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		return elapsed
	}
	variants := []struct {
		name string
		mod  func(*hdf5.Config)
	}{
		{"all-overheads", func(c *hdf5.Config) {}},
		{"no-create-sync", func(c *hdf5.Config) { c.DisableCreateSync = true }},
		{"aligned-metadata", func(c *hdf5.Config) { c.AlignData = true }},
		{"flat-pack", func(c *hdf5.Config) { c.DisableRecursivePack = true }},
		{"parallel-attrs", func(c *hdf5.Config) { c.ParallelAttrs = true }},
		{"none", func(c *hdf5.Config) {
			c.DisableCreateSync = true
			c.AlignData = true
			c.DisableRecursivePack = true
			c.ParallelAttrs = true
		}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			cfg := hdf5.DefaultConfig()
			v.mod(&cfg)
			var t float64
			for i := 0; i < b.N; i++ {
				t = runCfg(cfg)
			}
			b.ReportMetric(t, "write-vsec")
		})
	}
}

// BenchmarkAblationAppStriping measures the paper's file-system-level
// future work: application-specific per-file striping on PVFS. Eight
// concurrent clients each dump a small grid file; with the fixed default
// striping every file's first stripes hammer daemons 0-1, while
// application-chosen striping starts each file on a different daemon.
func BenchmarkAblationAppStriping(b *testing.B) {
	run := func(matched bool) float64 {
		mach := machine.New(machine.ChibaCity())
		fs := pfs.NewPVFS(mach, pfs.DefaultPVFS())
		eng := sim.NewEngine()
		const fileBytes = 128 << 10
		for i := 0; i < 8; i++ {
			i := i
			eng.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
				c := pfs.Client{Proc: p, Node: i}
				var f pfs.File
				var err error
				name := fmt.Sprintf("grid%d", i)
				if matched {
					f, err = fs.CreateStriped(c, name, fileBytes, 1, i)
				} else {
					f, err = fs.Create(c, name)
				}
				if err != nil {
					panic(err)
				}
				for k := 0; k < 4; k++ {
					f.WriteAt(c, make([]byte, fileBytes/4), int64(k)*fileBytes/4)
				}
			})
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		return eng.MaxTime()
	}
	for _, mode := range []string{"default-striping", "application-specific"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = run(mode == "application-specific")
			}
			b.ReportMetric(v, "vsec")
		})
	}
}

// BenchmarkScaledRestart measures restart cost when the reader allocation
// differs from the writer allocation (N-to-M restart).
func BenchmarkScaledRestart(b *testing.B) {
	cases := []struct{ w, r int }{{16, 16}, {16, 8}, {8, 16}}
	for _, c := range cases {
		c := c
		b.Run(fmt.Sprintf("%dto%d", c.w, c.r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				match, err := enzo.RunScaledRestart(machine.Origin2000(), "xfs",
					c.w, c.r, benchProblem(), enzo.BackendMPIIO)
				if err != nil {
					b.Fatal(err)
				}
				if !match {
					b.Fatal("content mismatch")
				}
			}
		})
	}
}
