package mpiio

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// interleavedRuns deals blocks of `block` bytes of the file range
// [base, base+size) round-robin to the ranks and returns rank's share — an
// interleaved view, so a collective access over it runs two-phase.
func interleavedRuns(base, size, block int64, nprocs, rank int) []mpi.Run {
	var runs []mpi.Run
	for b := int64(rank); b*block < size; b += int64(nprocs) {
		runs = append(runs, mpi.Run{Off: base + b*block, Len: min64(block, size-b*block)})
	}
	return runs
}

// gatherRuns returns the bytes of global the view covers, in run order.
func gatherRuns(global []byte, runs []mpi.Run) []byte {
	var out []byte
	for _, run := range runs {
		out = append(out, global[run.Off:run.Off+run.Len]...)
	}
	return out
}

// TestOutstandingCollectivesOwnTheirScratch: a restart issues every field's
// ReadAtAllBegin on one handle before any Wait, and a write-behind dump
// leaves dozens of WriteAtAllBegins outstanding while blocking collectives
// run on the same handle. Each outstanding operation must therefore own the
// scratch its wire messages, extent buffers and partner lists live in: the
// blocking calls in between recycle the handle's own.
func TestOutstandingCollectivesOwnTheirScratch(t *testing.T) {
	const (
		k      = 5
		region = 96 << 10 // one view's file range
		side   = 64 << 10 // the blocking write's range, past the views
	)
	global := make([]byte, k*region+side)
	for i := range global {
		global[i] = byte(i*7 + i>>9 + 3)
	}
	// View j interleaves its region in blocks of a different size; the last
	// one is contiguous per rank, which takes the independent branch unless
	// CBForce insists.
	view := func(j, nprocs, rank int) []mpi.Run {
		if j == k-1 {
			lo, hi := int64(rank)*region/int64(nprocs), int64(rank+1)*region/int64(nprocs)
			return []mpi.Run{{Off: int64(j)*region + lo, Len: hi - lo}}
		}
		return interleavedRuns(int64(j)*region, region, 512<<j, nprocs, rank)
	}
	sideRuns := func(nprocs, rank int) []mpi.Run {
		return interleavedRuns(k*region, side, 1024, nprocs, rank)
	}

	for _, nprocs := range []int{3, 8} {
		for _, force := range []bool{false, true} {
			t.Run(fmt.Sprintf("np=%d/cbforce=%v", nprocs, force), func(t *testing.T) {
				hints := DefaultHints()
				hints.CBForce = force
				hints.CBBufferSize = 16 << 10 // several chunks per aggregator

				t.Run("reads", func(t *testing.T) {
					got := make([][k][]byte, nprocs)
					want := make([][k][]byte, nprocs)
					runPVFS(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
						f, err := Open(r, fs, "views.dat", ModeCreate, hints)
						if err != nil {
							panic(err)
						}
						seedFile(r, f, global)
						me := r.Rank()
						var pend [k]*Pending
						for j := 0; j < k; j++ {
							runs := view(j, nprocs, me)
							got[me][j] = make([]byte, mpi.TotalLen(runs))
							pend[j] = f.IssueReadAtAll(true, runs, got[me][j])
						}
						// Blocking collectives on the same handle recycle
						// its scratch under the five outstanding reads.
						side := make([]byte, mpi.TotalLen(sideRuns(nprocs, me)))
						f.ReadAtAll(sideRuns(nprocs, me), side)
						f.WriteAtAll(sideRuns(nprocs, me), side)
						for j := 0; j < k; j++ {
							pend[j].Wait()
						}
						for j := 0; j < k; j++ {
							runs := view(j, nprocs, me)
							want[me][j] = make([]byte, mpi.TotalLen(runs))
							f.ReadAtAll(runs, want[me][j])
						}
						f.Close()
					})
					for rank := range got {
						for j := 0; j < k; j++ {
							if !bytes.Equal(want[rank][j], gatherRuns(global, view(j, nprocs, rank))) {
								t.Fatalf("rank %d view %d: blocking reference read wrong bytes", rank, j)
							}
							if !bytes.Equal(got[rank][j], want[rank][j]) {
								t.Fatalf("rank %d view %d: outstanding split read differs from the blocking read", rank, j)
							}
						}
					}
				})

				t.Run("writes", func(t *testing.T) {
					_, fs := runPVFS(t, nprocs, func(r *mpi.Rank, fs pfs.FileSystem) {
						f, err := Open(r, fs, "views.dat", ModeCreate, hints)
						if err != nil {
							panic(err)
						}
						me := r.Rank()
						var pend [k]*Pending
						for j := 0; j < k; j++ {
							runs := view(j, nprocs, me)
							pend[j] = f.IssueWriteAtAll(true, runs, gatherRuns(global, runs))
						}
						sr := sideRuns(nprocs, me)
						f.WriteAtAll(sr, gatherRuns(global, sr))
						back := make([]byte, mpi.TotalLen(sr))
						f.ReadAtAll(sr, back)
						for j := 0; j < k; j++ {
							pend[j].Wait()
						}
						f.Close()
					})
					if !bytes.Equal(readWholeFile(t, fs, "views.dat", int64(len(global))), global) {
						t.Fatal("outstanding split writes left wrong file bytes")
					}
				})
			})
		}
	}
}

// accessKind is one row of the mode-equivalence table: how a rank writes
// and reads back its share of the file through one access kind, in either
// issue mode. A new access kind gets both modes tested by adding a row.
type accessKind struct {
	name  string
	write func(f *File, behind bool, s share) *Pending
	read  func(f *File, behind bool, s share, buf []byte) *Pending
}

// share is one rank's bytes under every addressing the kinds need: a
// contiguous extent, an interleaved view, and a scrambled list whose
// entries are partly file-adjacent.
type share struct {
	off        int64
	runs       []mpi.Run
	offs, lens []int64
	data       []byte // len == per-rank bytes, the same for all addressings
}

var accessKinds = []accessKind{
	{"at",
		func(f *File, behind bool, s share) *Pending { return f.IssueWriteAt(behind, s.data, s.off) },
		func(f *File, behind bool, s share, buf []byte) *Pending { return f.IssueReadAt(behind, buf, s.off) }},
	{"runs",
		func(f *File, behind bool, s share) *Pending { return f.IssueWriteRuns(behind, s.runs, s.data) },
		func(f *File, behind bool, s share, buf []byte) *Pending {
			return f.IssueReadRuns(behind, s.runs, buf)
		}},
	{"list",
		func(f *File, behind bool, s share) *Pending {
			return f.IssueWriteList(behind, s.offs, s.lens, s.data)
		},
		func(f *File, behind bool, s share, buf []byte) *Pending {
			return f.IssueReadList(behind, s.offs, s.lens, buf)
		}},
	{"at-all",
		func(f *File, behind bool, s share) *Pending { return f.IssueWriteAtAll(behind, s.runs, s.data) },
		func(f *File, behind bool, s share, buf []byte) *Pending {
			return f.IssueReadAtAll(behind, s.runs, buf)
		}},
}

// TestIssueModesEquivalent runs all eight access kinds — {write, read} x
// {at, runs, list, at-all} — blocking and behind on every file system and
// asserts what the two modes must share (the bytes, and the byte counts the
// file system saw) and the one thing the behind mode must win: with compute
// to overlap, its makespan is no larger.
func TestIssueModesEquivalent(t *testing.T) {
	const (
		nprocs = 4
		per    = 48 << 10
		block  = 1536
		work   = 20_000_000
	)
	shareOf := func(rank int) share {
		s := share{off: int64(rank) * per, data: pattern(rank, per)}
		s.runs = interleavedRuns(0, nprocs*per, block, nprocs, rank)
		// The list is the view's blocks split in two and visited back to
		// front: unsorted, and every pair file-adjacent.
		for i := len(s.runs) - 1; i >= 0; i-- {
			run := s.runs[i]
			s.offs = append(s.offs, run.Off+block/2, run.Off)
			s.lens = append(s.lens, run.Len-block/2, block/2)
		}
		return s
	}
	// Sieving is the blocking mode's own read strategy (a behind read never
	// sieves), so it would make the byte counts differ by design.
	hints := DefaultHints()
	hints.DataSieving = false

	type outcome struct {
		bufs     [nprocs][]byte
		stats    pfs.Stats
		makespan float64
	}
	run := func(t *testing.T, fsKind string, kind accessKind, behind bool) outcome {
		var out outcome
		eng := sim.NewEngine()
		mach := machine.New(testMachineCfg())
		var fs pfs.FileSystem
		switch fsKind {
		case "xfs":
			fs = pfs.NewXFS(mach, pfs.DefaultXFS())
		case "gpfs":
			fs = pfs.NewGPFS(mach, pfs.DefaultGPFS())
		case "pvfs":
			fs = pfs.NewPVFS(mach, pfs.DefaultPVFS())
		case "local":
			fs = pfs.NewLocalFS(mach, pfs.DefaultLocal())
		}
		mpi.NewWorld(eng, mach, nprocs, func(r *mpi.Rank) {
			f, err := Open(r, fs, "modes.dat", ModeCreate, hints)
			if err != nil {
				panic(err)
			}
			s := shareOf(r.Rank())
			p := kind.write(f, behind, s)
			r.Compute(work)
			if (p != nil) != behind {
				panic("a handle is returned exactly when issuing behind")
			}
			if behind {
				p.Wait()
			}
			r.Barrier()
			buf := make([]byte, per)
			p = kind.read(f, behind, s, buf)
			r.Compute(work)
			if behind {
				p.Wait()
			}
			out.bufs[r.Rank()] = buf
			f.Close()
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		out.stats, out.makespan = fs.Stats(), eng.MaxTime()
		return out
	}

	for _, fsKind := range []string{"pvfs", "gpfs", "local", "xfs"} {
		for _, kind := range accessKinds {
			t.Run(fsKind+"/"+kind.name, func(t *testing.T) {
				blocking, behind := run(t, fsKind, kind, false), run(t, fsKind, kind, true)
				for rank := 0; rank < nprocs; rank++ {
					// Every addressing of a share covers per bytes of the
					// pattern, whichever file bytes they land on.
					if !bytes.Equal(blocking.bufs[rank], pattern(rank, per)) {
						t.Fatalf("rank %d: blocking round trip returned wrong bytes", rank)
					}
					if !bytes.Equal(behind.bufs[rank], blocking.bufs[rank]) {
						t.Fatalf("rank %d: behind round trip differs from blocking", rank)
					}
				}
				if b, d := blocking.stats, behind.stats; b.BytesWritten != d.BytesWritten || b.BytesRead != d.BytesRead {
					t.Fatalf("file system saw different byte counts: blocking %+v, behind %+v", b, d)
				}
				if behind.makespan > blocking.makespan {
					t.Fatalf("behind makespan %g exceeds blocking %g despite overlapped compute",
						behind.makespan, blocking.makespan)
				}
			})
		}
	}
}

// BenchmarkTwoPhase times one two-phase collective access over the 64³
// (Block,Block,Block) view at np=16 and np=64 on cluster1024/pvfs, in both
// directions and both issue modes. One engine run hosts all b.N operations
// on one open handle, so B/op and allocs/op are the steady-state
// per-operation cost summed over the ranks; ns/piece divides by the rows of
// the lattice, each of which travels as one piece (no row crosses a domain
// boundary here).
func BenchmarkTwoPhase(b *testing.B) {
	const N, elem = 64, 4
	for _, nprocs := range []int{16, 64} {
		pz, py, px := mpi.ProcGrid3D(nprocs)
		for _, dir := range []string{"write", "read"} {
			for _, mode := range []string{"blocking", "behind"} {
				write, behind := dir == "write", mode == "behind"
				b.Run(fmt.Sprintf("np=%d/%s/%s", nprocs, dir, mode), func(b *testing.B) {
					b.ReportAllocs()
					eng := sim.NewEngine()
					mach := machine.New(machine.Cluster1024())
					fs := pfs.NewPVFS(mach, pfs.DefaultPVFS())
					var seeded int64
					pieces := make([]int, nprocs)
					mpi.NewWorld(eng, mach, nprocs, func(r *mpi.Rank) {
						sub := mpi.BlockDecompose3D([3]int{N, N, N}, pz, py, px, r.Rank(), elem)
						runs, data := sub.Flatten(), pattern(r.Rank(), int(sub.Bytes()))
						pieces[r.Rank()] = len(runs)
						f, err := Open(r, fs, "bbb.dat", ModeCreate, DefaultHints())
						if err != nil {
							panic(err)
						}
						f.WriteAtAll(runs, data) // seed the file, warm the scratch
						r.Barrier()
						if r.Rank() == 0 {
							seeded = eng.Events()
							b.ResetTimer()
						}
						for i := 0; i < b.N; i++ {
							var p *Pending
							if write {
								p = f.IssueWriteAtAll(behind, runs, data)
							} else {
								p = f.IssueReadAtAll(behind, runs, data)
							}
							if behind {
								p.Wait()
							}
						}
						f.Close()
					})
					if err := eng.Run(); err != nil {
						b.Fatal(err)
					}
					total := 0
					for _, n := range pieces {
						total += n
					}
					b.ReportMetric(float64(eng.Events()-seeded)/float64(b.N), "events/op")
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(total), "ns/piece")
				})
			}
		}
	}
}
