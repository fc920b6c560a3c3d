package enzo

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// TestReadAheadCoversTheWalk: on fault-free castore runs with scrub on — the
// dedup benchmark's composition, at Tiny/np=4 and AMR64/np=8, compressed and
// not — every chunk a read-back fetches is taken from its read-ahead, and
// the read-ahead decodes no item the walk does not fetch: its item list is
// the walk's. Every rank reads back each of the three generations in the
// scrub and the newest once more in the restart.
func TestReadAheadCoversTheWalk(t *testing.T) {
	for _, row := range []struct {
		problem Config
		np      int
	}{{Tiny(), 4}, {AMR64(), 8}} {
		for _, codec := range []string{"lzss", "none"} {
			cfg := row.problem
			cfg.Dumps, cfg.Codec, cfg.RefineCycles = 3, codec, 1
			cfg.CAStore, cfg.Replicas, cfg.ScrubOnDump = true, 2, true
			t.Run(fmt.Sprintf("%s/np%d/%s", cfg.Problem, row.np, codec), func(t *testing.T) {
				if testing.Short() && cfg.Problem != "Tiny" {
					t.Skip("AMR64 in -short")
				}
				var taken, fresh, batches, items, unfetched int
				prepare := func(s *Sim) {
					s.onCasChunk = func(_ string, ahead bool) {
						if ahead {
							taken++
						} else {
							fresh++
						}
					}
					s.onReadAhead = func(n, left int) { batches, items, unfetched = batches+1, items+n, unfetched+left }
				}
				res, err := run(RunSpec{Machine: machine.ChibaCity(), FS: "pvfs", Procs: row.np, Config: cfg, Backend: BackendMPIIO}, prepare)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Verified || res.ScrubFailures != 0 {
					t.Fatalf("verified %v with %d scrub failures", res.Verified, res.ScrubFailures)
				}
				if fresh != 0 || taken == 0 {
					t.Errorf("%d chunks decoded afresh, %d taken from the read-ahead; want 0 and all", fresh, taken)
				}
				if want := (cfg.Dumps + 1) * row.np; batches != want {
					t.Errorf("%d read-aheads, want %d (scrub and restart read-backs on every rank)", batches, want)
				}
				if unfetched != 0 {
					t.Errorf("%d of %d items decoded ahead were never fetched", unfetched, items)
				}
				t.Logf("%d chunks of %d items taken from %d read-aheads", taken, items, batches)
			})
		}
	}
}

// TestReadAheadNeedsTheSameMemory: a chunk's decode is taken from the
// read-ahead only when Get lent the very memory it decoded or the same
// bytes, the decode succeeded in place and the walk's result continues into
// the very region it decoded into. Each rank of an AMR64/np=2 lzss castore dump opens the
// generation once per case and fetches its item of the most chunks; the
// decodes are counted by onCasChunk and the bytes held to a fetch with no
// read-ahead at all.
func TestReadAheadNeedsTheSameMemory(t *testing.T) {
	cases := []struct {
		name string
		// tamper changes the item's read-ahead entry before the fetch; it
		// returns how many of its n chunks must then be decoded afresh.
		tamper func(rd *casReader, e *aheadItem) int
	}{
		{"no read-ahead", func(rd *casReader, e *aheadItem) int { rd.ahead = nil; return len(e.chunks) }},
		{"as decoded", func(rd *casReader, e *aheadItem) int { return 0 }},
		{"same bytes at another address", func(rd *casReader, e *aheadItem) int {
			e.chunks[0].payload = bytes.Clone(e.chunks[0].payload)
			return 0 // another replica's memory after a restore: equal bytes decode alike
		}},
		{"other bytes at another address", func(rd *casReader, e *aheadItem) int {
			other := bytes.Clone(e.chunks[0].payload)
			other[len(other)/2] ^= 0xA5
			e.chunks[0].payload = other
			return 1
		}},
		{"decode failed", func(rd *casReader, e *aheadItem) int {
			lent := e.chunks[0].payload
			bad := bytes.Clone(lent)
			bad[len(bad)/2] ^= 0xA5
			e.chunks[0].payload = bad
			e.decode(rd.compressed())
			if e.chunks[0].dst != nil || e.chunks[1].dst == nil {
				t.Error("decoding a corrupted payload did not fail alone")
			}
			e.chunks[0].payload = lent // what Get lends: the failure stands
			return 1
		}},
		{"another destination", func(rd *casReader, e *aheadItem) int {
			e.buf = bytes.Clone(e.buf)
			return len(e.chunks)
		}},
	}
	cfg := AMR64()
	cfg.Codec, cfg.CAStore, cfg.Replicas = "lzss", true, 2
	body := func(r *mpi.Rank, _ pfs.FileSystem, s *Sim) {
		s.setup()
		s.readInitial()
		s.evolve()
		s.writeDump(0)
		var want []byte
		for _, tc := range cases {
			rd := s.io.(walk).lay.openDump(0).(*casReader)
			var e *aheadItem
			for i := range rd.ahead.items {
				if e == nil || len(rd.ahead.items[i].chunks) > len(e.chunks) {
					e = &rd.ahead.items[i]
				}
			}
			if len(e.chunks) < 2 {
				t.Fatalf("rank %d: no item of two chunks or more to tamper with", r.Rank())
			}
			name, n := e.it.Name, len(e.chunks)
			taken, fresh := 0, 0
			s.onCasChunk = func(item string, ahead bool) {
				switch {
				case item != name:
				case ahead:
					taken++
				default:
					fresh++
				}
			}
			wantFresh := tc.tamper(rd, e)
			got := rd.fetch([]byte(name))
			rd.close()
			s.onCasChunk = nil
			if want == nil {
				want = got
			}
			if !bytes.Equal(got, want) || len(got) == 0 {
				t.Errorf("rank %d, %s: %q fetched %d bytes, not the %d a fetch with no read-ahead returns", r.Rank(), tc.name, name, len(got), len(want))
			}
			if fresh != wantFresh || taken != n-wantFresh {
				t.Errorf("rank %d, %s: %d chunks decoded afresh and %d taken, want %d and %d", r.Rank(), tc.name, fresh, taken, wantFresh, n-wantFresh)
			}
		}
	}
	w := World{Procs: 2, Config: cfg, Backend: BackendMPIIO, Result: &Result{}, Body: body}
	if _, err := Assemble(Allocation{Machine: machine.ChibaCity(), FS: "pvfs"}, w); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCASReadBack is one tolerant read-back of an AMR64/np=8 lzss
// castore generation (two replicas) on chiba/pvfs, as a scrub does it: the
// read-back walk and the manifest check, the live state kept. B/op and
// allocs/op sum the ranks.
func BenchmarkCASReadBack(b *testing.B) {
	cfg := AMR64()
	cfg.Codec, cfg.CAStore, cfg.Replicas = "lzss", true, 2
	body := func(r *mpi.Rank, _ pfs.FileSystem, s *Sim) {
		s.setup()
		s.readInitial()
		s.evolve()
		s.writeDump(0)
		s.writeManifest(0, s.snapshot())
		r.Barrier()
		if r.Rank() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if !s.scrubGeneration(0) {
				b.Error("the generation did not read back clean")
			}
		}
	}
	w := World{Procs: 8, Config: cfg, Backend: BackendMPIIO, Result: &Result{}, Body: body}
	if _, err := Assemble(Allocation{Machine: machine.ChibaCity(), FS: "pvfs"}, w); err != nil {
		b.Fatal(err)
	}
}
