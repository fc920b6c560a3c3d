package castore

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// run executes body as a single simulated process on a fresh chiba/pvfs
// volume and returns the file system for post-run inspection.
func run(t *testing.T, opt Options, body func(c pfs.Client, s *Store)) pfs.FileSystem {
	t.Helper()
	var fs pfs.FileSystem
	runOn(t, opt, func(bare pfs.FileSystem) pfs.FileSystem { fs = bare; return bare }, body)
	return fs
}

// runOn is run over a caller-built stack: wrap turns the bare volume into
// the file system the store is given.
func runOn(t *testing.T, opt Options, wrap func(pfs.FileSystem) pfs.FileSystem, body func(c pfs.Client, s *Store)) {
	t.Helper()
	mach := machine.New(machine.ByName("chiba"))
	fs := wrap(pfs.NewPVFS(mach, pfs.DefaultPVFS()))
	eng := sim.NewEngine()
	eng.Spawn("c", func(p *sim.Proc) { body(pfs.Client{Proc: p, Node: 0}, New(fs, opt)) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func rawPack(b []byte) func() []byte { return func() []byte { return b } }

func TestPutGetRoundtrip(t *testing.T) {
	data := testData(300_000, 5)
	run(t, Options{Replicas: 2, Retain: 2}, func(c pfs.Client, s *Store) {
		s.BeginGeneration(0)
		var refs []ChunkRef
		for _, chunk := range Split(data, s.Params()) {
			ref, err := s.Put(c, chunk, KeyOf(chunk), rawPack(chunk))
			if err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			if len(ref.Reps) != 2 {
				t.Errorf("got %d replicas, want 2", len(ref.Reps))
			}
			if ref.Reps[0].Server == ref.Reps[1].Server {
				t.Errorf("replicas share server %d", ref.Reps[0].Server)
			}
			refs = append(refs, ref)
		}
		var got []byte
		for _, ref := range refs {
			b, err := s.Get(c, ref)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			if KeyOf(b) != ref.Key {
				t.Error("fetched chunk fails its content key")
			}
			got = append(got, b...)
		}
		if !bytes.Equal(got, data) {
			t.Error("roundtrip mismatch")
		}
		st := s.Stats()
		if st.PhysicalBytes != 2*st.LogicalBytes {
			t.Errorf("physical %d, want 2x logical %d", st.PhysicalBytes, st.LogicalBytes)
		}
	})
}

func TestDedupWithinRetention(t *testing.T) {
	data := testData(200_000, 9)
	run(t, Options{Replicas: 1, Retain: 2}, func(c pfs.Client, s *Store) {
		chunks := Split(data, s.Params())
		s.BeginGeneration(0)
		for _, ch := range chunks {
			if _, err := s.Put(c, ch, KeyOf(ch), rawPack(ch)); err != nil {
				t.Errorf("gen0 Put: %v", err)
			}
		}
		phys0 := s.Stats().PhysicalBytes
		if phys0 == 0 {
			t.Fatal("gen0 wrote nothing")
		}
		// Generation 1: identical content inside the retention window —
		// every chunk must dedup, zero physical bytes.
		s.BeginGeneration(1)
		for _, ch := range chunks {
			ref, err := s.Put(c, ch, KeyOf(ch), func() []byte { t.Error("pack called on a dedup hit"); return ch })
			if err != nil {
				t.Errorf("gen1 Put: %v", err)
			}
			if b, err := s.Get(c, ref); err != nil || !bytes.Equal(b, ch) {
				t.Errorf("deduped ref does not read back (err=%v)", err)
			}
		}
		if got := s.Stats().PhysicalBytes; got != phys0 {
			t.Errorf("gen1 grew physical bytes to %d, want %d (full dedup)", got, phys0)
		}
		if s.Stats().ChunkHits != int64(len(chunks)) {
			t.Errorf("hits %d, want %d", s.Stats().ChunkHits, len(chunks))
		}
		// Generation 3: gen-1 entries were refreshed at gen 1, so with
		// Retain=2 they fall outside the window (1 <= 3-2) and rewrite.
		s.BeginGeneration(3)
		for _, ch := range chunks {
			if _, err := s.Put(c, ch, KeyOf(ch), rawPack(ch)); err != nil {
				t.Errorf("gen3 Put: %v", err)
			}
		}
		if got := s.Stats().PhysicalBytes; got != 2*phys0 {
			t.Errorf("gen3 physical %d, want %d (retention expired, full rewrite)", got, 2*phys0)
		}
	})
}

func TestRedumpBypassesIndex(t *testing.T) {
	data := testData(150_000, 13)
	run(t, Options{Replicas: 1, Retain: 0}, func(c pfs.Client, s *Store) {
		chunks := Split(data, s.Params())
		if force := s.BeginGeneration(0); force {
			t.Error("first generation must not be a re-dump")
		}
		for _, ch := range chunks {
			if _, err := s.Put(c, ch, KeyOf(ch), rawPack(ch)); err != nil {
				t.Errorf("Put: %v", err)
			}
		}
		phys0 := s.Stats().PhysicalBytes
		// Scrub found damage: the same generation dumps again. Dedup
		// against the (possibly corrupt) first attempt must be bypassed.
		if force := s.BeginGeneration(0); !force {
			t.Error("repeated generation must force a fresh write")
		}
		for _, ch := range chunks {
			if _, err := s.Put(c, ch, KeyOf(ch), rawPack(ch)); err != nil {
				t.Errorf("redump Put: %v", err)
			}
		}
		if got := s.Stats().PhysicalBytes; got != 2*phys0 {
			t.Errorf("redump physical %d, want %d (no dedup against suspect bytes)", got, 2*phys0)
		}
	})
}

func TestGetFailsOverDeadServer(t *testing.T) {
	data := testData(260_000, 21)
	run(t, Options{Replicas: 2, Retain: 0}, func(c pfs.Client, s *Store) {
		s.BeginGeneration(0)
		var refs []ChunkRef
		for _, ch := range Split(data, s.Params()) {
			ref, err := s.Put(c, ch, KeyOf(ch), rawPack(ch))
			if err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			refs = append(refs, ref)
		}
		// Kill the server holding the first replica of every chunk's
		// preferred route; reads must reroute to the surviving replica.
		dead := refs[0].Reps[0].Server
		s.fs.(pfs.StripeFaultInjector).FailDataServerAt(dead, c.Proc.Now())
		var failovers int64
		for _, ref := range refs {
			b, err := s.Get(c, ref)
			if err != nil {
				t.Errorf("Get with dead server %d: %v", dead, err)
				return
			}
			if KeyOf(b) != ref.Key {
				t.Error("failover read returned wrong bytes")
			}
		}
		failovers = s.Stats().Failovers
		if failovers == 0 {
			t.Error("expected at least one failover past the dead server")
		}
	})
}

func TestGetAllReplicasDeadIsTypedError(t *testing.T) {
	data := testData(80_000, 31)
	run(t, Options{Replicas: 1, Retain: 0}, func(c pfs.Client, s *Store) {
		s.BeginGeneration(0)
		chunk := Split(data, s.Params())[0]
		ref, err := s.Put(c, chunk, KeyOf(chunk), rawPack(chunk))
		if err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		s.fs.(pfs.StripeFaultInjector).FailDataServerAt(ref.Reps[0].Server, c.Proc.Now())
		_, err = s.Get(c, ref)
		var re *ReadError
		if !errors.As(err, &re) {
			t.Errorf("got %v, want *ReadError", err)
		}
	})
}

func TestNamedObjectSurvivesDeadServer(t *testing.T) {
	blob := testData(10_000, 41)
	run(t, Options{Replicas: 2, Retain: 0}, func(c pfs.Client, s *Store) {
		if err := s.PutNamed(c, "dump00.cas", blob); err != nil {
			t.Errorf("PutNamed: %v", err)
			return
		}
		got, err := s.GetNamed(c, "dump00.cas")
		if err != nil || !bytes.Equal(got, blob) {
			t.Errorf("healthy GetNamed failed: %v", err)
		}
		// Kill each replica's server in turn (one at a time): the object
		// must stay readable with any single server dead.
		for _, srv := range s.namedPlacement("dump00.cas") {
			mach := machine.New(machine.ByName("chiba"))
			fs2 := pfs.NewPVFS(mach, pfs.DefaultPVFS())
			fs2.Restore(s.fs.Snapshot())
			eng := sim.NewEngine()
			srv := srv
			eng.Spawn("r", func(p *sim.Proc) {
				c2 := pfs.Client{Proc: p, Node: 0}
				s2 := New(fs2, Options{Replicas: 2})
				fs2.FailDataServerAt(srv, 0)
				got, err := s2.GetNamed(c2, "dump00.cas")
				if err != nil || !bytes.Equal(got, blob) {
					t.Errorf("GetNamed with server %d dead: %v", srv, err)
				}
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestManifestRoundtrip(t *testing.T) {
	items := []Item{
		{Name: "g0/f0/r0", Raw: 1 << 20, Chunks: []ChunkRef{
			{Key: Key{Sum: 0xDEADBEEF, N: 4096}, Raw: 4096, Phys: 1024,
				Reps: []Rep{{Server: 3, Rank: 0, Off: 0}, {Server: 4, Rank: 0, Off: 512}}},
			{Key: Key{Sum: 1, N: 7}, Raw: 7, Phys: 7, Reps: []Rep{{Server: -1, Rank: 2, Off: 99}}},
		}},
		{Name: "g7/p2", Raw: 0},
	}
	blob := EncodeManifest(3, 8, [][]byte{EncodeItems(items[:1]), EncodeItems(items[1:])})
	m, err := DecodeManifest(blob)
	if err != nil {
		t.Fatalf("DecodeManifest: %v", err)
	}
	if m.Gen != 3 || m.NP != 8 || len(m.Items) != 2 {
		t.Fatalf("decoded header gen=%d np=%d items=%d", m.Gen, m.NP, len(m.Items))
	}
	it := m.Item("g0/f0/r0")
	if it == nil || len(it.Chunks) != 2 || it.Chunks[0].Reps[1].Off != 512 ||
		it.Chunks[1].Reps[0].Server != -1 {
		t.Fatalf("decoded item mismatch: %+v", it)
	}
	if m.Item("nope") != nil {
		t.Fatal("lookup of missing item succeeded")
	}
	// Damage must decode to an error, never a plausible manifest.
	for name, mut := range map[string]func([]byte) []byte{
		"bitflip":  func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
		"truncate": func(b []byte) []byte { return b[:len(b)-5] },
		"empty":    func(b []byte) []byte { return nil },
		"magic":    func(b []byte) []byte { b[0] ^= 0xFF; return b },
	} {
		d := mut(append([]byte(nil), blob...))
		if _, err := DecodeManifest(d); err == nil {
			t.Errorf("%s: damaged manifest decoded successfully", name)
		}
	}
}

// TestHoldsIsPutsHitTest: asked before each Put, Holds says whether that
// Put is a dedup hit — across a fresh generation, one inside the retention
// window, one past it and a re-dump — and asking changes nothing.
func TestHoldsIsPutsHitTest(t *testing.T) {
	data := testData(200_000, 21)
	run(t, Options{Replicas: 1, Retain: 2}, func(c pfs.Client, s *Store) {
		chunks := Split(data, s.Params())
		for _, gen := range []int{0, 1, 3, 3} {
			s.BeginGeneration(gen)
			hits := s.Stats().ChunkHits
			for i, ch := range chunks {
				held := s.Holds(KeyOf(ch))
				if held != s.Holds(KeyOf(ch)) {
					t.Fatalf("gen %d chunk %d: Holds changed its answer", gen, i)
				}
				packed := false
				if _, err := s.Put(c, ch, KeyOf(ch), func() []byte { packed = true; return ch }); err != nil {
					t.Fatalf("gen %d Put: %v", gen, err)
				}
				if held == packed {
					t.Errorf("gen %d chunk %d: Holds said %v, Put packed: %v", gen, i, held, packed)
				}
			}
			if gen == 1 && s.Stats().ChunkHits-hits != int64(len(chunks)) {
				t.Errorf("gen 1: %d hits, want every chunk's %d", s.Stats().ChunkHits-hits, len(chunks))
			}
		}
	})
}
