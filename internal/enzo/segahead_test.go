package enzo

import (
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// TestSegmentReadAheadCoversTheWalk: on fault-free compressed runs of the
// z-directory MPI-IO file and of HDF5 — blocking, read-ahead and scrubbed,
// Tiny/np=4 and AMR64/np=8 — every segment a reader decoded ahead in its
// batch is taken by the walk, and no segment is decoded afresh; that pins
// each reader's list to its walk. The one exception is a tolerant rawz
// read-back (a scrub, the restart after one), which reads into zeros of its
// own and so batches nothing: its segments are decoded as they are read.
func TestSegmentReadAheadCoversTheWalk(t *testing.T) {
	for _, row := range []struct {
		problem Config
		np      int
	}{{Tiny(), 4}, {AMR64(), 8}} {
		for _, backend := range []Backend{BackendMPIIO, BackendHDF5} {
			for _, mode := range []string{"sync", "async", "scrub"} {
				cfg := row.problem
				cfg.Dumps, cfg.Codec = 2, "lzss"
				cfg.AsyncIO, cfg.ScrubOnDump = mode == "async", mode == "scrub"
				t.Run(fmt.Sprintf("%s/np%d/%s/%s", cfg.Problem, row.np, backend, mode), func(t *testing.T) {
					if testing.Short() && cfg.Problem != "Tiny" {
						t.Skip("AMR64 in -short")
					}
					var taken, fresh, batches, listed, untaken int
					prepare := func(s *Sim) {
						s.z.OnExpand = func(batched bool) {
							if batched {
								taken++
							} else {
								fresh++
							}
						}
						s.onSegsAhead = func(n, left int) { batches, listed, untaken = batches+1, listed+n, untaken+left }
					}
					res, err := run(RunSpec{Machine: machine.ChibaCity(), FS: "pvfs", Procs: row.np, Config: cfg, Backend: backend}, prepare)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Verified || res.ScrubFailures != 0 {
						t.Fatalf("verified %v with %d scrub failures", res.Verified, res.ScrubFailures)
					}
					tolerantRawz := mode == "scrub" && backend == BackendMPIIO
					if taken == 0 || taken != listed || fresh != 0 && !tolerantRawz {
						t.Errorf("%d segments decoded afresh and %d taken of %d decoded ahead; want 0 and all", fresh, taken, listed)
					}
					if untaken != 0 {
						t.Errorf("%d of %d segments decoded ahead were never taken", untaken, listed)
					}
					// The initial read and the restart on every rank, and a
					// scrub read-back of each dump.
					want := 2 * row.np
					if cfg.ScrubOnDump {
						want += cfg.Dumps * row.np
					}
					if batches != want {
						t.Errorf("%d batches, want %d", batches, want)
					}
					t.Logf("%d segments taken from %d batches, %d decoded afresh", taken, batches, fresh)
				})
			}
		}
	}
}

// BenchmarkSegmentReadBack is one restart of an AMR64/np=8 lzss checkpoint
// on chiba/pvfs, as dedup_codec_np8's h5async sub-run reads it (HDF5,
// read-ahead pipeline) and as its z-directory MPI-IO file is read (blocking):
// the segments decoded in one batch, then lent and taken by the walk. B/op
// and allocs/op sum the ranks.
func BenchmarkSegmentReadBack(b *testing.B) {
	for _, row := range []struct {
		name    string
		backend Backend
		async   bool
	}{{"h5async", BackendHDF5, true}, {"rawz", BackendMPIIO, false}} {
		b.Run(row.name, func(b *testing.B) {
			cfg := AMR64()
			cfg.Codec, cfg.AsyncIO = "lzss", row.async
			body := func(r *mpi.Rank, _ pfs.FileSystem, s *Sim) {
				s.setup()
				s.readInitial()
				s.evolve()
				s.writeDump(0)
				s.clearState()
				s.forgetDerived()
				r.Barrier()
				if r.Rank() == 0 {
					b.ReportAllocs()
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					s.readRestart(0)
				}
			}
			w := World{Procs: 8, Config: cfg, Backend: row.backend, Result: &Result{}, Body: body}
			if _, err := Assemble(Allocation{Machine: machine.ChibaCity(), FS: "pvfs"}, w); err != nil {
				b.Fatal(err)
			}
		})
	}
}
