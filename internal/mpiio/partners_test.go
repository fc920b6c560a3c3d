package mpiio

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// TestPartnerListsSymmetric pins the property that lets the two-phase
// exchange run without a count round: every rank derives its send list and
// every aggregator its receive list from the same gathered extents, and the
// two must describe the same set of (rank, aggregator) pairs — s is in a's
// recvFrom exactly when a's rank is in s's sendTo — or a Recv would wait
// forever. The oracle re-evaluates the extent-meets-domain predicate from
// the test's own copy of the extents, across cb_nodes 1..np, MinFDSize
// limits and rotations, empty participants and sparse extents.
func TestPartnerListsSymmetric(t *testing.T) {
	for _, np := range []int{1, 2, 3, 5, 8, 13} {
		for cb := 1; cb <= np; cb++ {
			for _, minFD := range []int64{0, 64, 4096} {
				rng := rand.New(rand.NewSource(int64(np*1000+cb*10) + minFD))
				// Extents at a random base (so MinFDSize's position-derived
				// rotation varies); about a quarter of the ranks hold nothing.
				base := rng.Int63n(1 << 20)
				runs := make([][]mpi.Run, np)
				for s := range runs {
					if np > 1 && rng.Intn(4) == 0 {
						continue
					}
					off := base + rng.Int63n(20000)
					runs[s] = []mpi.Run{{Off: off, Len: 1 + rng.Int63n(20000)}}
				}
				sendTo := make([][]int, np)
				recvFrom := make([][]int, np)
				var lo, hi int64
				var naggs, rot int
				runIO(t, np, func(r *mpi.Rank, fs pfs.FileSystem) {
					h := DefaultHints()
					h.CBNodes, h.MinFDSize = cb, minFD
					f, err := Open(r, fs, "x", ModeCreate, h)
					if err != nil {
						panic(err)
					}
					var ext []int64
					lo, hi, _, ext = f.accessRange(runs[r.Rank()])
					if hi > lo {
						naggs, rot = f.aggregators(lo, hi)
						sendTo[r.Rank()], recvFrom[r.Rank()] = f.partners(nil, nil, ext, lo, hi, naggs, rot)
					}
					f.Close()
				})
				name := fmt.Sprintf("np=%d cb=%d minfd=%d", np, cb, minFD)
				for s := 0; s < np; s++ {
					if !slices.IsSorted(sendTo[s]) || !slices.IsSorted(recvFrom[s]) {
						t.Fatalf("%s rank %d: lists not ascending: %v %v", name, s, sendTo[s], recvFrom[s])
					}
					for a := 0; a < naggs; a++ {
						d := (rot + a) % np
						dLo, dHi := domain(lo, hi, naggs, a)
						want := len(runs[s]) > 0 &&
							max64(runs[s][0].Off, dLo) < min64(runs[s][0].Off+runs[s][0].Len, dHi)
						if got := slices.Contains(sendTo[s], d); got != want {
							t.Fatalf("%s: rank %d sends to aggregator %d (rank %d): %v, want %v", name, s, a, d, got, want)
						}
						if got := slices.Contains(recvFrom[d], s); got != want {
							t.Fatalf("%s: aggregator %d (rank %d) receives from rank %d: %v, want %v", name, a, d, s, got, want)
						}
					}
				}
				for d := 0; d < np; d++ { // nobody outside the aggregator set is addressed
					if a := (d - rot + np) % np; a >= naggs {
						for s := 0; s < np; s++ {
							if slices.Contains(sendTo[s], d) || len(recvFrom[d]) > 0 {
								t.Fatalf("%s: rank %d is no aggregator but has partners", name, d)
							}
						}
					}
				}
			}
		}
	}
}

// TestRunsSkippingAWholeDomainRoundTrip drives the empty-message path: rank
// 0's two runs sit at the two ends of the file, so its extent covers every
// file domain while its data touches only the first and the last. The
// aggregators in between cannot know that — they expect a message from
// every rank whose extent meets their domain — so rank 0 owes them an empty
// one. Write then read must stay bit-identical on the blocking and the
// split-collective paths for every aggregator count.
func TestRunsSkippingAWholeDomainRoundTrip(t *testing.T) {
	const np, slab = 4, 1000
	const size = np * slab
	global := make([]byte, size)
	for i := range global {
		global[i] = byte(i*7 + 3)
	}
	// Rank 0: the first and last 100 bytes. Ranks 1..3 interleave over the
	// rest in 50-byte pieces (so the extents overlap and two-phase runs).
	runsOf := func(rank int) []mpi.Run {
		if rank == 0 {
			return []mpi.Run{{Off: 0, Len: 100}, {Off: size - 100, Len: 100}}
		}
		var runs []mpi.Run
		for off := int64(100 + 50*(rank-1)); off < size-100; off += 150 {
			runs = append(runs, mpi.Run{Off: off, Len: min64(50, size-100-off)})
		}
		return runs
	}
	gather := func(runs []mpi.Run) []byte {
		var out []byte
		for _, run := range runs {
			out = append(out, global[run.Off:run.Off+run.Len]...)
		}
		return out
	}
	for cb := 1; cb <= np; cb++ {
		for _, split := range []bool{false, true} {
			name := fmt.Sprintf("cb=%d split=%v", cb, split)
			readBack := make([][]byte, np)
			var emptyOwed int
			_, fs := runPVFS(t, np, func(r *mpi.Rank, fs pfs.FileSystem) {
				h := DefaultHints()
				h.CBNodes, h.MinFDSize, h.CBForce = cb, 0, true
				f, err := Open(r, fs, "holes.dat", ModeCreate, h)
				if err != nil {
					panic(err)
				}
				runs := runsOf(r.Rank())
				data := gather(runs)
				buf := make([]byte, len(data))
				if r.Rank() == 0 {
					lo, hi, _, ext := f.accessRange(runs)
					naggs, rot := f.aggregators(lo, hi)
					sendTo, _ := f.partners(nil, nil, ext, lo, hi, naggs, rot)
					emptyOwed = len(sendTo) - min(naggs, 2)
				} else {
					f.accessRange(runs)
				}
				if split {
					f.WriteAtAllBegin(runs, data).Wait()
					f.ReadAtAllBegin(runs, buf).Wait()
				} else {
					f.WriteAtAll(runs, data)
					f.ReadAtAll(runs, buf)
				}
				readBack[r.Rank()] = buf
				f.Close()
			})
			if want := max(cb-2, 0); emptyOwed != want {
				t.Fatalf("%s: rank 0 owes %d empty messages, want %d (one per aggregator its runs skip)", name, emptyOwed, want)
			}
			if got := readWholeFile(t, fs, "holes.dat", size); !bytes.Equal(got, global) {
				t.Fatalf("%s: file contents differ from the global array", name)
			}
			for rank, buf := range readBack {
				if !bytes.Equal(buf, gather(runsOf(rank))) {
					t.Fatalf("%s: rank %d read back different bytes than it wrote", name, rank)
				}
			}
		}
	}
}

// TestCollectiveEventGrowthStaysSubQuadratic is the guard against an
// O(np²) exchange coming back unnoticed: the dispatches one WriteAtAll and
// one ReadAtAll cost on a fixed 64³ (Block,Block,Block) array must grow by
// less than 8x per 4x in ranks (a dense pairwise exchange grows 16x; the
// partner-list exchange about 5x).
func TestCollectiveEventGrowthStaysSubQuadratic(t *testing.T) {
	if testing.Short() {
		t.Skip("np=256 worlds; skipped in -short mode")
	}
	const dim = 64
	perOp := func(np int) (write, read int64) {
		eng := sim.NewEngine()
		mach := machine.New(machine.Cluster1024())
		fs := pfs.NewPVFS(mach, pfs.DefaultPVFS())
		pz, py, px := mpi.ProcGrid3D(np)
		var marks [4]int64
		mpi.NewWorld(eng, mach, np, func(r *mpi.Rank) {
			f, err := Open(r, fs, "cube", ModeCreate, DefaultHints())
			if err != nil {
				panic(err)
			}
			sub := mpi.BlockDecompose3D([3]int{dim, dim, dim}, pz, py, px, r.Rank(), 4)
			runs := sub.Flatten()
			buf := make([]byte, sub.Bytes())
			// Every region ends in a barrier; rank 0 reads the dispatch
			// count after each. The first (empty) region prices the barrier.
			for i, region := range []func(){
				func() {},
				func() {},
				func() { f.WriteAtAll(runs, buf) },
				func() { f.ReadAtAll(runs, buf) },
			} {
				region()
				r.Barrier()
				if r.Rank() == 0 {
					marks[i] = eng.Events()
				}
			}
			f.Close()
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		barrier := marks[1] - marks[0]
		return marks[2] - marks[1] - barrier, marks[3] - marks[2] - barrier
	}
	w16, r16 := perOp(16)
	w64, r64 := perOp(64)
	w256, r256 := perOp(256)
	t.Logf("events per WriteAtAll: %d -> %d -> %d; per ReadAtAll: %d -> %d -> %d (np = 16, 64, 256)",
		w16, w64, w256, r16, r64, r256)
	for _, g := range []struct {
		what       string
		small, big int64
	}{
		{"WriteAtAll np 16->64", w16, w64}, {"WriteAtAll np 64->256", w64, w256},
		{"ReadAtAll np 16->64", r16, r64}, {"ReadAtAll np 64->256", r64, r256},
	} {
		if g.big >= 8*g.small {
			t.Errorf("%s: events grew %d -> %d (%.1fx), want under 8x", g.what, g.small, g.big, float64(g.big)/float64(g.small))
		}
	}
}
