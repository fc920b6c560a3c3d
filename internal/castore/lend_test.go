package castore

import (
	"bytes"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/pfs"
)

func sameBytes(a, b []byte) bool { return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0] }

// TestGetLendsStoredChunk: Get hands back the container's own bytes — the
// payload Put stored, by reference — and allocates nothing, device read
// included; a stale-read overlay still arrives as a private copy;
// and a deadline missed on one replica still yields the other's bytes.
func TestGetLendsStoredChunk(t *testing.T) {
	chunk := testData(60_000, 41)
	put := func(t *testing.T, c pfs.Client, s *Store) ChunkRef {
		s.BeginGeneration(0)
		ref, err := s.Put(c, chunk, KeyOf(chunk), rawPack(chunk))
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		return ref
	}

	t.Run("aliases", func(t *testing.T) {
		run(t, Options{Replicas: 2}, func(c pfs.Client, s *Store) {
			ref := put(t, c, s)
			got, err := s.Get(c, ref)
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if !sameBytes(got, chunk) {
				t.Error("Get did not lend the stored chunk: the result is a copy")
			}
			if get := testing.AllocsPerRun(20, func() { s.Get(c, ref) }); get != 0 {
				t.Errorf("Get allocates %v times a call, want 0", get)
			}
		})
	})

	t.Run("stale-overlay", func(t *testing.T) {
		stale := func(fs pfs.FileSystem) pfs.FileSystem {
			return faultfs.Wrap(fs, faultfs.Config{Mode: faultfs.StaleRead, FileSubstr: "cas/"})
		}
		runOn(t, Options{Replicas: 1}, stale, func(c pfs.Client, s *Store) {
			ref := put(t, c, s)
			rep := ref.Reps[0]
			f, err := s.readHandle(c, rep.Server, rep.Rank)
			if err != nil {
				t.Fatal(err)
			}
			fresh := bytes.Repeat([]byte{0x5A}, len(chunk))
			f.WriteAt(c, fresh, rep.Off) // the chunk's bytes are now stale
			got, err := s.Get(c, ref)
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if !bytes.Equal(got, chunk) {
				t.Fatal("the stale overlay did not reach Get's result")
			}
			if sameBytes(got, chunk) || sameBytes(got, fresh) {
				t.Error("the overlay came back in stored bytes, not in a private copy")
			}
			if !bytes.Equal(fresh, bytes.Repeat([]byte{0x5A}, len(chunk))) {
				t.Error("the overlay wrote through the lent extent")
			}
		})
	})

	t.Run("deadline-failover", func(t *testing.T) {
		var lends []error
		tap := func(fs pfs.FileSystem) pfs.FileSystem {
			return pfs.Tap(fs, func(call pfs.Call) {
				if call.Req.Lend != nil && call.Req.Mode == pfs.By {
					lends = append(lends, call.Err)
				}
			})
		}
		// A tenfold straggler completes about 10 ms past the 50 ms deadline;
		// the healthy replica, read next, about 30 ms before its own.
		runOn(t, Options{Replicas: 2, ReadTimeout: 0.05}, tap, func(c pfs.Client, s *Store) {
			ref := put(t, c, s)
			slow := s.orderReps(c, ref.Reps)[0].Server
			s.rv.(pfs.StripeFaultInjector).DegradeDataServer(slow, 10)
			got, err := s.Get(c, ref)
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if !bytes.Equal(got, chunk) {
				t.Error("the second replica's bytes are wrong")
			}
		})
		if len(lends) != 2 || lends[0] == nil || lends[1] != nil {
			t.Errorf("lend reads ended in %v, want a missed deadline and then a success", lends)
		}
	})
}
