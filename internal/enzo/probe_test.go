package enzo

// Diagnostic breakdown used during calibration; run with
// go test ./internal/enzo -run Breakdown -v
import (
	"testing"

	"repro/internal/amr"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/sim"
)

func TestBreakdownXFS(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	cfg := AMR64()
	for _, backend := range []Backend{BackendHDF4, BackendMPIIO} {
		eng := sim.NewEngine()
		mach := machine.New(machine.Origin2000())
		fs, _ := MakeFS("xfs", mach)
		res := &Result{}
		nprocs := 16
		mpi.NewWorld(eng, mach, nprocs, func(r *mpi.Rank) {
			s := newSim(r, fs, backend, cfg, res)
			s.setup()
			mark := func(name string, f func()) {
				r.Barrier()
				t0 := r.Now()
				f()
				r.Barrier()
				dt := r.AllreduceFloat64(r.Now()-t0, mpi.OpMax)
				if r.Rank() == 0 {
					t.Logf("%-6s %-22s %8.3fs", backend, name, dt)
				}
			}
			switch backend {
			case BackendHDF4:
				h4 := s.io.(hdf4IO)
				mark("read top", func() {
					s.top = h4.readTop(icGridFile(0))
				})
				mark("read subgrids", func() {
					for _, g := range s.meta.Subgrids() {
						s.partials = append(s.partials, h4.readPartitioned(icGridFile(g.ID), g))
					}
				})
				mark("evolve", s.evolve)
				mark("write dump", func() { s.io.writeDump(0) })
				s.clearState()
				mark("restart", func() { s.io.readRestart(0) })
			case BackendMPIIO:
				var f *mpiio.File
				mark("open", func() {
					var err error
					f, err = mpiio.Open(r, fs, icRawFile(), mpiio.ModeRead, s.hints)
					if err != nil {
						panic(err)
					}
				})
				g := s.meta.Top()
				mark("read top fields", func() {
					s.top = &partition{gridID: 0, sub: core.FieldSubarray(g, s.pz, s.py, s.px, r.Rank())}
					s.top.blocks = make([]mpi.View, len(amr.FieldNames))
					for fi, name := range amr.FieldNames {
						buf := make([]byte, s.top.sub.Bytes())
						f.ReadAtAll(s.fieldRuns(g, name, s.top.sub), buf)
						s.top.blocks[fi] = mpi.Packed(buf)
					}
				})
				mark("read top particles", func() {
					lo, hi := core.BlockRange(g.NParticles, r.Size(), r.Rank())
					cols := make([][]byte, len(amr.ParticleArrays))
					for k, pa := range amr.ParticleArrays {
						base, _ := s.offsets.ArrayOffset(g.ID, pa.Name)
						buf := make([]byte, (hi-lo)*int64(pa.ElemSize))
						f.ReadAt(buf, base+lo*int64(pa.ElemSize))
						cols[k] = buf
					}
					block := amr.ParticleSet{N: int(hi - lo), Arrays: cols}
					r.CopyCost(int64(block.N * rowSize()))
					s.top.particles = s.redistributeByPosition(&block, g)
				})
				var tFields, tPart, tRedist float64
				mark("read subgrids", func() {
					for _, sg := range s.meta.Subgrids() {
						p := &partition{gridID: sg.ID, sub: core.FieldSubarray(sg, s.pz, s.py, s.px, r.Rank())}
						p.blocks = make([]mpi.View, len(amr.FieldNames))
						t0 := r.Now()
						for fi, name := range amr.FieldNames {
							buf := make([]byte, p.sub.Bytes())
							f.ReadAtAll(s.fieldRuns(sg, name, p.sub), buf)
							p.blocks[fi] = mpi.Packed(buf)
						}
						t1 := r.Now()
						tFields += t1 - t0
						if sg.NParticles > 0 {
							lo, hi := core.BlockRange(sg.NParticles, r.Size(), r.Rank())
							cols := make([][]byte, len(amr.ParticleArrays))
							for k, pa := range amr.ParticleArrays {
								base, _ := s.offsets.ArrayOffset(sg.ID, pa.Name)
								buf := make([]byte, (hi-lo)*int64(pa.ElemSize))
								f.ReadAt(buf, base+lo*int64(pa.ElemSize))
								cols[k] = buf
							}
							t2 := r.Now()
							tPart += t2 - t1
							block := amr.ParticleSet{N: int(hi - lo), Arrays: cols}
							r.CopyCost(int64(block.N * rowSize()))
							p.particles = s.redistributeByPosition(&block, sg)
							tRedist += r.Now() - t2
						} else {
							p.particles = amr.NewParticleSet(0)
						}
						s.partials = append(s.partials, p)
					}
				})
				if r.Rank() == 0 {
					t.Logf("   subgrid detail: fields=%.3f particles=%.3f redist=%.3f", tFields, tPart, tRedist)
				}
				f.Close()
				mark("evolve", s.evolve)
				mark("write top fields", func() {
					df, err := mpiio.Open(r, fs, "probe_top.raw", mpiio.ModeCreate, s.hints)
					if err != nil {
						panic(err)
					}
					for fi, name := range amr.FieldNames {
						df.WriteAtAll(s.fieldRuns(g, name, s.top.sub), s.top.field(fi))
					}
					df.Close()
				})
				mark("write top particles", func() {
					df, _ := mpiio.Open(r, fs, "probe_part.raw", mpiio.ModeCreate, s.hints)
					sortedRows := s.parallelSortByID(&s.top.particles)
					myCount := int64(len(sortedRows) / rowSize())
					rowOff := r.ExscanInt64(myCount)
					_, cols := flatColumnsFromRows(sortedRows)
					r.CopyCost(int64(len(sortedRows)))
					for k, pa := range amr.ParticleArrays {
						base, _ := s.offsets.ArrayOffset(g.ID, pa.Name)
						df.WriteAt(cols[k], base+rowOff*int64(pa.ElemSize))
					}
					df.Close()
				})
				mark("write dump", func() { s.io.writeDump(0) })
				s.clearState()
				mark("restart", func() { s.io.readRestart(0) })
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
