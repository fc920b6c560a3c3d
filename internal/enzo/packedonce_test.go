package enzo

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/amr"
	"repro/internal/castore"
	"repro/internal/compress"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// hitCheck is the check mode of "an array is packed once": installed on every
// rank of a run, it derives again what each hit reused — the container, the
// chunk bounds, the content keys — and counts the hits and the differences.
// Ranks of one world run one at a time, so plain counters do.
type hitCheck struct {
	packHits, packDiffs   int
	tableHits, tableDiffs int
	tableHitsOf           map[compress.ArrayID]int // per array: presentations after the first
}

func (hc *hitCheck) prepare(s *Sim) {
	if s.z != nil {
		s.z.OnHit = func(raw, blob []byte) {
			hc.packHits++
			if !bytes.Equal(compress.Pack(s.z.Codec(), raw, compress.DefaultChunkSize), blob) {
				hc.packDiffs++
			}
		}
	}
	s.onChunkHit = func(raw []byte, t chunkTable) {
		hc.tableHits++
		hc.tableHitsOf[compress.IDOf(raw)]++
		bounds := castore.SplitBounds(raw, s.cas.Params())
		same := reflect.DeepEqual(bounds, t.bounds) && len(t.keys) == len(bounds)
		lo := 0
		for i, hi := range bounds {
			same = same && t.keys[i] == castore.KeyOf(raw[lo:hi])
			lo = hi
		}
		if !same {
			hc.tableDiffs++
		}
	}
}

// TestHitsAreRepacks: over the compositions whose stored bytes are pinned,
// every remembered container equals a fresh Pack of the array it is returned
// for — the ones adopted from the process table of packed initial conditions
// (the plain run files them, the checked run adopts them) as much as the
// rank's own — every reused chunk table equals a fresh split and keying, no
// array is split twice, and the run with the checks on returns the plain
// run's Result and files.
func TestHitsAreRepacks(t *testing.T) {
	for _, tc := range storedCases() {
		t.Run(tc.name, func(t *testing.T) {
			plain, plainFiles := tc.run(t)
			hc := hitCheck{tableHitsOf: map[compress.ArrayID]int{}}
			checked, files := tc.runWith(t, hc.prepare)
			if !reflect.DeepEqual(plain, checked) {
				t.Errorf("Result with the checks on differs:\n got %+v\nwant %+v", *checked, *plain)
			}
			compareSnapshots(t, tc.name, plainFiles, files)
			if hc.packDiffs != 0 || hc.tableDiffs != 0 {
				t.Errorf("%d of %d remembered containers and %d of %d chunk tables differ from a fresh derivation",
					hc.packDiffs, hc.packHits, hc.tableDiffs, hc.tableHits)
			}
			if hc.packHits == 0 {
				t.Error("no squeeze found its array packed: three dumps of one state must")
			}
			if tc.cfg.CAStore && hc.tableHits == 0 {
				t.Error("no array found its chunk table: three generations of one state must")
			}
			// Three generations present every array three times and split it
			// once; a re-dump presents it again and splits nothing.
			for id, hits := range hc.tableHitsOf {
				if want := tc.cfg.Dumps - 1; hits < want || tc.fault == nil && hits != want {
					t.Errorf("array %v found its chunk table %d times, want %d", id, hits, want)
				}
			}
			t.Logf("%d containers and %d chunk tables reused", hc.packHits, hc.tableHits)
		})
	}
}

// TestDerivedFormsAreDroppedWithTheState: a remembered container keeps its
// array reachable, so what a rank remembers must go when the arrays do — the
// staged partitions at the end of setup, the dump state before the restart is
// read. While dumping, a rank therefore remembers no more containers than it
// holds field arrays, and — the restart path remembers nothing — it ends the
// run empty.
func TestDerivedFormsAreDroppedWithTheState(t *testing.T) {
	for _, tc := range storedCases() {
		if tc.cfg.Codec != "lzss" || tc.cfg.AsyncIO {
			continue
		}
		var sims []*Sim
		dumpHits := 0
		tc.runWith(t, func(s *Sim) {
			sims = append(sims, s)
			s.z.OnHit = func(raw, blob []byte) {
				if s.top == nil || s.cas != nil {
					return // setup; or the chunk store, which remembers chunks
				}
				dumpHits++
				live := len(s.top.fields)
				for _, g := range s.owned {
					live += len(g.Fields)
				}
				if n := s.z.Remembered(); n > live {
					t.Errorf("%s: rank %d remembers %d containers while dumping %d arrays", tc.name, s.r.Rank(), n, live)
				}
			}
		})
		if dumpHits == 0 && !tc.cfg.CAStore {
			t.Fatalf("%s: no dump found its arrays packed", tc.name)
		}
		for _, s := range sims {
			if n := s.z.Remembered(); n != 0 || len(s.chunks) != 0 {
				t.Errorf("%s: rank %d ends the run remembering %d containers and %d chunk tables", tc.name, s.r.Rank(), n, len(s.chunks))
			}
		}
	}
}

// TestHierarchyBuiltOnce: first callers racing for a problem nobody has built
// all get one hierarchy, built once (the seed keeps other tests' entries out).
func TestHierarchyBuiltOnce(t *testing.T) {
	cfg := Tiny()
	cfg.Seed = 0x6275696c744f6e63
	const callers = 8
	got := make([]*amr.Hierarchy, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = hierEntryFor(cfg).hierarchy()
		}()
	}
	wg.Wait()
	for i, h := range got {
		if h == nil || h != got[0] {
			t.Fatalf("caller %d got hierarchy %p, caller 0 got %p", i, h, got[0])
		}
	}
}

// TestPackedICTableKeepsOneDecomposition: the table of packed initial
// conditions holds the partitions of the most recent (np, codec) of a problem
// and nothing else, fills on the first run, serves the second (whose Result
// it must not move), and survives concurrent runs of other decompositions and
// codecs of the same problem.
func TestPackedICTableKeepsOneDecomposition(t *testing.T) {
	cfg := Tiny()
	cfg.Seed = 0x69635461626c65 // an entry of this test's own
	runAt := func(np int, codec string) *Result {
		c := cfg
		c.Codec = codec
		res, err := Run(RunSpec{Machine: faultMachCfg(), FS: "pvfs", Procs: np, Config: c, Backend: BackendMPIIO})
		if err != nil {
			t.Error(err)
			return &Result{}
		}
		if !res.Verified {
			t.Errorf("np=%d %s: restart did not verify", np, codec)
		}
		return res
	}
	e := hierEntryFor(cfg)
	table := func() (np int, codec uint8, n int, bytes int64) {
		e.mu.Lock()
		defer e.mu.Unlock()
		for _, blob := range e.blobs {
			bytes += int64(len(blob))
		}
		return e.np, e.codec, len(e.blobs), bytes
	}
	lzss, _ := compress.ByName("lzss")
	rle, _ := compress.ByName("rle")

	first := runAt(4, "lzss")
	np, codec, n4, bytes4 := table()
	if np != 4 || codec != lzss.ID() || n4 == 0 {
		t.Fatalf("after np=4 lzss the table is (np=%d codec=%d, %d containers)", np, codec, n4)
	}
	if again := runAt(4, "lzss"); !reflect.DeepEqual(first, again) {
		t.Errorf("the run served from the table differs:\n got %+v\nwant %+v", *again, *first)
	}
	if _, _, n, b := table(); n != n4 || b != bytes4 {
		t.Errorf("a second np=4 lzss run changed the table: %d containers / %d bytes, was %d / %d", n, b, n4, bytes4)
	}
	t.Logf("Tiny np=4 lzss: %d containers, %d bytes retained", n4, bytes4)

	runAt(2, "rle")
	if np, codec, n, _ := table(); np != 2 || codec != rle.ID() || n == 0 || n >= n4 {
		t.Errorf("after np=2 rle the table is (np=%d codec=%d, %d containers): the np=4 one must be gone", np, codec, n)
	}

	var wg sync.WaitGroup
	for _, c := range []struct {
		np    int
		codec string
	}{{4, "lzss"}, {2, "lzss"}, {4, "rle"}, {4, "lzss"}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := runAt(c.np, c.codec)
			if c.np == 4 && c.codec == "lzss" && !reflect.DeepEqual(first, res) {
				t.Errorf("np=4 lzss among concurrent runs differs:\n got %+v\nwant %+v", *res, *first)
			}
		}()
	}
	wg.Wait()
	if _, _, n, _ := table(); n == 0 || n > n4 {
		t.Errorf("after the concurrent runs the table holds %d containers, want one decomposition's (at most %d)", n, n4)
	}
}

// BenchmarkCasPut is the chunk store's write path per 4 MiB array (Tiny's
// top-grid density field, tiled), lzss, two replicas: generation0 presents an
// array nobody has seen — split, keyed, every chunk packed and written (the
// loop re-dumps one generation with everything forgotten, so each iteration
// pays that in full) — generation1 presents it again, unchanged: the table is
// found, every chunk dedups, nothing is packed.
func BenchmarkCasPut(b *testing.B) {
	tile := hierEntryFor(Tiny()).hierarchy().Grids[0].Fields[0]
	field := make([]byte, 0, 4<<20)
	for len(field) < cap(field) {
		field = append(field, tile[:min(len(tile), cap(field)-len(field))]...)
	}
	cfg := Tiny()
	cfg.Codec, cfg.CAStore, cfg.Replicas = "lzss", true, 2
	for _, again := range []bool{false, true} {
		name := "generation0"
		if again {
			name = "generation1"
		}
		b.Run(name, func(b *testing.B) {
			eng := sim.NewEngine()
			mach := machine.New(testMachineCfg())
			fs, err := MakeFS("pvfs", mach)
			if err != nil {
				b.Fatal(err)
			}
			mpi.NewWorld(eng, mach, 1, func(r *mpi.Rank) {
				s := newSim(r, fs, BackendMPIIO, cfg, &Result{})
				lay := s.io.(walk).lay
				lay.createDump(0).(*casDump).put("a", field)
				b.SetBytes(int64(len(field)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d := 0
					if again {
						d = i + 1
					} else {
						s.forgetDerived()
					}
					lay.createDump(d).(*casDump).put("a", field)
				}
			})
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
