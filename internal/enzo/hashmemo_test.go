package enzo

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/amr"
	"repro/internal/faultfs"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// memoCheck is the check mode of the hierarchy's field-hash memo: installed
// on every rank of a run, it hashes afresh every grid a snapshot took from
// the memo and records, per rank and snapshot, how many owned hierarchy
// grids there were and how many hit. Ranks of one world run one at a time,
// so plain fields do.
type memoCheck struct {
	snaps       [][]memoSnap // per rank, in the order the snapshots were taken
	hits, diffs int
}

type memoSnap struct{ owned, hits int }

func (mc *memoCheck) prepare(s *Sim) {
	rank := s.r.Rank()
	if mc.snaps == nil {
		mc.snaps = make([][]memoSnap, s.r.Size())
	}
	s.onSnapshot = func(snap snapshotState, memo []int) {
		ms := memoSnap{hits: len(memo)}
		grids := len(s.hierEntry().hierarchy().Grids)
		for id := range s.owned {
			if id < grids {
				ms.owned++
			}
		}
		for _, id := range memo {
			mc.hits++
			if snap.grids[id] != gridHash(s.owned[id]) {
				mc.diffs++
			}
		}
		mc.snaps[rank] = append(mc.snaps[rank], ms)
	}
}

// TestHashMemoMatchesFreshHash: every grid hash a snapshot takes from the
// hierarchy's memo equals a fresh hash of the grid, over every backend on
// its home platform and the runs that do and do not leave an owned grid
// the hierarchy's own memory. The shared-file, uncompressed runs take it
// for every owned hierarchy grid, before the dump and after the restart
// (mpiio-cb before the dump only: its restart reads what the aggregators
// copied); node-local and compressed runs, whose owners hold copies, never
// take it before the dump. A restart that swapped two grids' arrays does
// not verify.
func TestHashMemoMatchesFreshHash(t *testing.T) {
	corrupt := func(fs pfs.FileSystem) pfs.FileSystem {
		return faultfs.Wrap(fs, faultfs.Config{Mode: faultfs.CorruptWrite, EveryN: 3, MinBytes: 2048, MaxInject: 6})
	}
	const (
		anyHits  = iota // hits must be right, wherever they fall
		allHit          // every owned hierarchy grid hits, before the dump and after the restart
		preHit          // every owned hierarchy grid hits before the dump
		noPreHit        // nothing hits before the dump
	)
	variants := []struct {
		name   string
		set    func(*Config)
		fs     string // "" is the backend's home file system
		wrap   func(pfs.FileSystem) pfs.FileSystem
		expect int
	}{
		{"plain", func(*Config) {}, "", nil, allHit},
		{"refine", func(c *Config) { c.RefineCycles = 1 }, "", nil, allHit},
		{"async", func(c *Config) { c.AsyncIO = true }, "", nil, allHit},
		{"castore-scrub", func(c *Config) { c.CAStore, c.Replicas, c.ScrubOnDump = true, 2, true }, "", nil, anyHits},
		{"corrupt-write", func(*Config) {}, "", corrupt, anyHits},
		{"local", func(*Config) {}, "local", nil, noPreHit},
		{"lzss", func(c *Config) { c.Codec = "lzss" }, "", nil, noPreHit},
	}
	for _, sz := range []struct {
		name string
		cfg  Config
		np   int
	}{{"Tiny/np4", Tiny(), 4}, {"AMR64/np8", AMR64(), 8}} {
		for _, backend := range []Backend{BackendHDF4, BackendMPIIO, BackendMPIIOCB, BackendHDF5} {
			home := map[Backend]string{BackendHDF4: "gpfs", BackendHDF5: "xfs"}[backend]
			if home == "" {
				home = "pvfs"
			}
			for _, v := range variants {
				name := fmt.Sprintf("%s/%s/%s", sz.name, backend, v.name)
				t.Run(name, func(t *testing.T) {
					cfg := sz.cfg
					v.set(&cfg)
					fsKind := home
					if v.fs != "" {
						fsKind = v.fs
					}
					expect := v.expect
					switch {
					case backend == BackendHDF4 && expect == noPreHit:
						expect = allHit // HDF4 has no node-local staging: its root is lent the arrays
					case backend == BackendMPIIOCB && expect == allHit:
						expect = preHit // its dump goes through the aggregators' buffers, which the restart reads
					}
					var mc memoCheck
					spec := RunSpec{Machine: homeMachine(home), FS: fsKind, Procs: sz.np, Config: cfg, Backend: backend, Wrap: v.wrap}
					res, err := run(spec, mc.prepare)
					if spec.Validate() != nil {
						if !errors.As(err, new(*SpecError)) || mc.snaps != nil {
							t.Fatalf("a refused composition ran: %v", err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if v.wrap == nil && !res.Verified {
						t.Error("restart not verified")
					}
					if mc.diffs != 0 {
						t.Fatalf("%d of %d memo hits differ from a fresh hash of the grid", mc.diffs, mc.hits)
					}
					for rank, snaps := range mc.snaps {
						pre, post := snaps[0], snaps[len(snaps)-1]
						switch expect {
						case preHit:
							if pre.hits != pre.owned {
								t.Errorf("rank %d: %d of %d owned hierarchy grids hit before the dump", rank, pre.hits, pre.owned)
							}
						case allHit:
							if pre.hits != pre.owned || post.hits != post.owned {
								t.Errorf("rank %d: %d of %d owned hierarchy grids hit before the dump, %d of %d after the restart",
									rank, pre.hits, pre.owned, post.hits, post.owned)
							}
						case noPreHit:
							if pre.hits != 0 {
								t.Errorf("rank %d: %d grids hit before the dump, where the owners hold copies", rank, pre.hits)
							}
						}
					}
					if (expect == allHit || expect == preHit) && mc.hits == 0 {
						t.Error("no grid hit the memo")
					}
				})
			}
		}
	}
	t.Run("swap", testHashMemoSeesASwap)
}

// testHashMemoSeesASwap: two equal-sized subgrids whose arrays a restart
// swapped are each the hierarchy's memory, but not their own grid's, so
// both are hashed afresh and the restart does not verify — while the same
// restart unswapped does.
func testHashMemoSeesASwap(t *testing.T) {
	for _, swap := range []bool{false, true} {
		swapped := false
		var verified bool
		body := func(r *mpi.Rank, _ pfs.FileSystem, s *Sim) {
			s.setup()
			s.readInitial()
			s.evolve()
			snap := s.snapshot()
			s.writeDump(0)
			s.clearState()
			s.forgetDerived()
			s.readRestart(0)
			if a, b := s.memoPair(); swap && !swapped && a != nil {
				a.Fields, b.Fields = b.Fields, a.Fields
				swapped = true // ranks run one at a time: the first with a pair swaps
			}
			if ok := s.verify(snap); r.Rank() == 0 {
				verified = ok
			}
		}
		w := World{Procs: 2, Config: Tiny(), Backend: BackendMPIIO, Result: &Result{}, Body: body}
		if _, err := Assemble(Allocation{Machine: machine.ChibaCity(), FS: "pvfs"}, w); err != nil {
			t.Fatal(err)
		}
		if swap && !swapped {
			t.Fatal("no rank owns two equal-sized subgrids that hit the memo after the restart")
		}
		if verified == swap {
			t.Errorf("swap=%v: verified=%v", swap, verified)
		}
	}
}

// memoPair returns two owned grids, in ID order, whose fields have equal
// sizes and different bytes and are both their own hierarchy grid's memory,
// or nils.
func (s *Sim) memoPair() (a, b *amr.Grid) {
	ids := slices.Sorted(maps.Keys(s.owned))
	for i, x := range ids {
		for _, y := range ids[i+1:] {
			ga, gb := s.owned[x], s.owned[y]
			_, hitA := s.hierEntry().fieldHash(x, ga.Fields)
			_, hitB := s.hierEntry().fieldHash(y, gb.Fields)
			if hitA && hitB && ga.Cells() == gb.Cells() && fieldsHash(ga.Fields) != fieldsHash(gb.Fields) {
				return ga, gb
			}
		}
	}
	return nil, nil
}

// BenchmarkSnapshot is a run's two state hashes of AMR64 at np=8, mpiio on
// chiba/pvfs: one op is the pre-dump snapshot of the consolidated state and
// the verify of the restarted state against it. One engine run hosts all
// b.N ops after one setup, initial read, consolidation, dump and restart,
// and one op untimed, which leaves the memo as every run of a sweep after
// the first finds it. hashed-B/op sums the bytes the ranks hash per op.
func BenchmarkSnapshot(b *testing.B) {
	var hashed int64
	body := func(r *mpi.Rank, _ pfs.FileSystem, s *Sim) {
		s.setup()
		s.readInitial()
		s.evolve()
		preTop, preOwned := s.top, s.owned
		s.writeDump(0)
		s.clearState()
		s.forgetDerived()
		s.readRestart(0)
		postTop, postOwned := s.top, s.owned
		timed := false
		s.onSnapshot = func(_ snapshotState, memo []int) {
			if timed {
				hashed += hashedBytes(s, memo)
			}
		}
		op := func() {
			s.top, s.owned = preTop, preOwned
			snap := s.snapshot()
			s.top, s.owned = postTop, postOwned
			if !s.verify(snap) {
				b.Error("restart not verified")
			}
		}
		op()
		r.Barrier()
		if r.Rank() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		timed = true
		for i := 0; i < b.N; i++ {
			op()
		}
	}
	w := World{Procs: 8, Config: AMR64(), Backend: BackendMPIIO, Result: &Result{}, Body: body}
	if _, err := Assemble(Allocation{Machine: machine.ChibaCity(), FS: "pvfs"}, w); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(hashed)/float64(b.N), "hashed-B/op")
}

// hashedBytes is what a snapshot of s hashes: the top grid's blocks and
// particles, and every owned grid's particles and — unless the memo gave
// their hash — fields.
func hashedBytes(s *Sim, memo []int) int64 {
	var n int64
	if s.top != nil {
		for f := range s.top.blocks {
			n += int64(len(s.top.field(f)))
		}
		n += int64(s.top.particles.N) * amr.BytesPerParticle()
	}
	for id, g := range s.owned {
		n += int64(g.Particles.N) * amr.BytesPerParticle()
		if !slices.Contains(memo, id) {
			for _, f := range g.Fields {
				n += int64(len(f))
			}
		}
	}
	return n
}
