package enzo

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/amr"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// TestInitialReadMatchesTruth checks, for every backend and for shared vs
// node-local storage, that the timed initial read delivers exactly the
// data the hierarchy generator produced: field blocks byte-for-byte and
// particles as the correct per-rank set.
func TestInitialReadMatchesTruth(t *testing.T) {
	cfg := Tiny()
	truth := amr.BuildHierarchy(cfg.Dims, cfg.NParticles, cfg.PreRefine, cfg.Threshold, cfg.Seed)
	meta := core.FromHierarchy(truth)

	for _, backend := range []Backend{BackendHDF4, BackendMPIIO, BackendHDF5} {
		for _, fsKind := range []string{"xfs", "local"} {
			backend, fsKind := backend, fsKind
			t.Run(fmt.Sprintf("%s-%s", backend, fsKind), func(t *testing.T) {
				const nprocs = 4
				eng := sim.NewEngine()
				mach := machine.New(testMachineCfg())
				fs, err := MakeFS(fsKind, mach)
				if err != nil {
					t.Fatal(err)
				}
				res := &Result{}
				type rankState struct {
					top      *partition
					partials []*partition
				}
				states := make([]rankState, nprocs)
				mpi.NewWorld(eng, mach, nprocs, func(r *mpi.Rank) {
					s := newSim(r, fs, backend, cfg, res)
					s.setup()
					s.readInitial()
					states[r.Rank()] = rankState{top: s.top, partials: s.partials}
				})
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				pz, py, px := mpi.ProcGrid3D(nprocs)
				// Verify every grid: root from .top, subgrids from .partials.
				for _, gm := range meta.Grids {
					g := truth.Grids[gm.ID]
					for rank := 0; rank < nprocs; rank++ {
						var p *partition
						if gm.ID == 0 {
							p = states[rank].top
						} else {
							p = states[rank].partials[gm.ID-1]
						}
						sub := mpi.BlockDecompose3D(gm.Dims, pz, py, px, rank, amr.FieldElemSize)
						for fi := range amr.FieldNames {
							want := sub.GatherSub(g.Fields[fi])
							if !bytes.Equal(p.fields[fi], want) {
								t.Fatalf("grid %d rank %d field %d: data mismatch", gm.ID, rank, fi)
							}
						}
					}
					// Particles: union across ranks must equal the truth set,
					// and each particle must sit on the rank owning its position.
					var gotIDs []int64
					for rank := 0; rank < nprocs; rank++ {
						var p *partition
						if gm.ID == 0 {
							p = states[rank].top
						} else {
							p = states[rank].partials[gm.ID-1]
						}
						for i := 0; i < p.particles.N; i++ {
							gotIDs = append(gotIDs, p.particles.ID(i))
							owner := core.OwnerOfPosition(p.particles.Position(i), gm, pz, py, px)
							if owner != rank {
								t.Fatalf("grid %d: particle %d on rank %d, owner should be %d",
									gm.ID, p.particles.ID(i), rank, owner)
							}
						}
					}
					var wantIDs []int64
					for i := 0; i < g.Particles.N; i++ {
						wantIDs = append(wantIDs, g.Particles.ID(i))
					}
					sort.Slice(gotIDs, func(i, j int) bool { return gotIDs[i] < gotIDs[j] })
					sort.Slice(wantIDs, func(i, j int) bool { return wantIDs[i] < wantIDs[j] })
					if len(gotIDs) != len(wantIDs) {
						t.Fatalf("grid %d: %d particles read, want %d", gm.ID, len(gotIDs), len(wantIDs))
					}
					for i := range wantIDs {
						if gotIDs[i] != wantIDs[i] {
							t.Fatalf("grid %d: particle ID sets differ", gm.ID)
						}
					}
				}
			})
		}
	}
}

// TestDumpFileContentsMatchAcrossBackends verifies that the MPI-IO shared
// dump file holds exactly the hierarchy's bytes at the layout's offsets.
func TestDumpFileContentsMatchAcrossBackends(t *testing.T) {
	cfg := Tiny()
	truth := amr.BuildHierarchy(cfg.Dims, cfg.NParticles, cfg.PreRefine, cfg.Threshold, cfg.Seed)
	meta := core.FromHierarchy(truth)
	layout := core.NewLayout(meta)

	eng := sim.NewEngine()
	mach := machine.New(testMachineCfg())
	fs, _ := MakeFS("xfs", mach)
	res := &Result{}
	mpi.NewWorld(eng, mach, 4, func(r *mpi.Rank) {
		s := newSim(r, fs, BackendMPIIO, cfg, res)
		s.setup()
		s.readInitial()
		s.evolve()
		s.writeDump(0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	// Read the dump file raw and compare the field arrays of every grid
	// (particle arrays are permuted by the ID sort for the top grid, so
	// compare fields only plus sorted top-grid IDs).
	eng2 := sim.NewEngine()
	var fileData []byte
	eng2.Spawn("reader", func(p *sim.Proc) {
		c := pfs.Client{Proc: p, Node: 0}
		f, err := fs.Open(c, dumpRawFile(0))
		if err != nil {
			panic(err)
		}
		fileData = make([]byte, layout.TotalBytes())
		f.ReadAt(c, fileData, 0)
	})
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	for _, gm := range meta.Grids {
		g := truth.Grids[gm.ID]
		for fi, name := range amr.FieldNames {
			off, length := layout.ArrayOffset(gm.ID, name)
			if !bytes.Equal(fileData[off:off+length], g.Fields[fi]) {
				t.Fatalf("grid %d field %s differs in dump file", gm.ID, name)
			}
		}
	}
	// Top-grid particle IDs in the dump must be sorted ascending.
	top := meta.Top()
	if top.NParticles > 1 {
		off, length := layout.ArrayOffset(0, "particle_id")
		prev := int64(-1)
		for p := off; p < off+length; p += 8 {
			var id int64
			for i := 0; i < 8; i++ {
				id |= int64(fileData[p+int64(i)]) << (8 * i)
			}
			if id < prev {
				t.Fatal("top-grid particles not sorted by ID in the dump")
			}
			prev = id
		}
	}
}
