package pfs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/sim"
)

// stripeSplit is the reference stripe map: it walks the file extent
// [off, off+n), striped round-robin with the given unit over nServers
// servers, stripe by stripe into per-server local spans, merging a span
// with the previous one on its server when they are contiguous in that
// server's local layout. The result is ordered by server, then by local
// offset. layout.span is checked against it.
func stripeSplit(off, n, unit int64, nServers int) []stripeSpan {
	if unit <= 0 || nServers <= 0 {
		panic("pfs: invalid striping parameters")
	}
	if n <= 0 {
		return nil
	}
	perServer := make(map[int][]stripeSpan)
	pos := off
	end := off + n
	for pos < end {
		stripe := pos / unit
		server := int(stripe % int64(nServers))
		localStripe := stripe / int64(nServers)
		within := pos % unit
		take := unit - within
		if pos+take > end {
			take = end - pos
		}
		localOff := localStripe*unit + within
		spans := perServer[server]
		if len(spans) > 0 {
			last := &spans[len(spans)-1]
			if last.localOff+last.n == localOff {
				last.n += take
				pos += take
				continue
			}
		}
		perServer[server] = append(spans, stripeSpan{server: server, localOff: localOff, n: take})
		pos += take
	}
	var out []stripeSpan
	for s := 0; s < nServers; s++ {
		out = append(out, perServer[s]...)
	}
	return out
}

// referenceSpans is stripeSplit under l, with each virtual server moved to
// the volume server l rotates it to.
func referenceSpans(l layout, off, n int64) []stripeSpan {
	ref := stripeSplit(off, n, l.unit, l.servers)
	for i := range ref {
		ref[i].server = (ref[i].server + l.first) % l.volume
	}
	return ref
}

func TestStripeSplitCoversExtentExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := volumeLayout(int64(rng.Intn(1000)+1), rng.Intn(7)+1)
		off := rng.Int63n(10000)
		n := rng.Int63n(20000) + 1
		var total int64
		for sp := range l.spans(off, n) {
			if sp.server < 0 || sp.server >= l.volume || sp.n <= 0 || sp.localOff < 0 {
				return false
			}
			total += sp.n
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStripeSplitMergesContiguousLocalRuns(t *testing.T) {
	// A large extent over 4 servers: each server's four stripes are
	// locally contiguous, so it holds exactly one 4 KiB span at local
	// offset 0.
	spans := slices.Collect(volumeLayout(1024, 4).spans(0, 16*1024))
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want one per server: %+v", len(spans), spans)
	}
	for i, sp := range spans {
		if sp.server != i || sp.n != 4*1024 || sp.localOff != 0 {
			t.Fatalf("span %d = %+v, want server=%d localOff=0 n=4096", i, sp, i)
		}
	}
}

func TestStripeSplitSingleServer(t *testing.T) {
	spans := slices.Collect(volumeLayout(64, 1).spans(100, 5000))
	if len(spans) != 1 || spans[0].localOff != 100 || spans[0].n != 5000 {
		t.Fatalf("single-server split = %+v", spans)
	}
}

// FuzzStripeMap holds the closed-form stripe map to the stripe-by-stripe
// reference over volume layouts, per-file layouts with a rotated (and
// unnormalized) first server, and the one-server layout of a placed file,
// which must put every byte at its own offset on the placed server.
func FuzzStripeMap(f *testing.F) {
	f.Add(int64(0), int64(16*1024), int64(1024), 4, 0, 4, false)
	f.Add(int64(100), int64(5000), int64(64), 1, 0, 1, false)
	f.Add(int64(70_001), int64(200_000), int64(64*1024), 3, -5, 8, false)
	f.Add(int64(12_345), int64(60*1024), int64(256*1024), 8, 11, 8, false)
	f.Add(int64(999), int64(4096), int64(1), 7, 2, 7, true)
	f.Fuzz(func(t *testing.T, off, n, unit int64, servers, first, volume int, pinned bool) {
		off = int64(uint64(off) % (1 << 40))
		n = int64(uint64(n) % (1 << 18))
		unit = 1 + int64(uint64(unit)%(1<<20))
		volume = 1 + int(uint(volume)%16)
		servers = 1 + int(uint(servers)%16)
		ls := newLayouts(unit, volume)
		st := NewByteStore()
		if pinned {
			ls.pin(st, first)
		} else {
			ls.set(st, unit, servers, first)
		}
		l := ls.of(st)
		got, want := slices.Collect(l.spans(off, n)), referenceSpans(l, off, n)
		if !slices.Equal(got, want) {
			t.Fatalf("layout %+v, [%d, %d): closed form %+v, reference %+v", l, off, off+n, got, want)
		}
		if pinned && n > 0 {
			home := (first%volume + volume) % volume
			if len(got) != 1 || got[0] != (stripeSpan{server: home, localOff: off, n: n}) {
				t.Fatalf("placed on %d: [%d, %d) maps to %+v", home, off, off+n, got)
			}
		}
	})
}

// TestStripedRequestAllocatesNothing: a blocking read or write on a striped
// model maps its stripes by arithmetic, so it allocates nothing — for
// every layout a file can have: the volume default, per-file striping with
// a rotated first server, and a file placed on one server.
func TestStripedRequestAllocatesNothing(t *testing.T) {
	xfs := func(m *machine.Machine) FileSystem { return NewXFS(m, DefaultXFS()) }
	pvfs := func(m *machine.Machine) FileSystem { return NewPVFS(m, DefaultPVFS()) }
	gpfs := func(m *machine.Machine) FileSystem { return NewGPFS(m, DefaultGPFS()) }
	plain := func(fs FileSystem, c Client) (File, error) { return fs.Create(c, "f") }
	placed := func(fs FileSystem, c Client) (File, error) { return CreatePlacedOn(fs, c, "f", 2) }
	striped := func(fs FileSystem, c Client) (File, error) { return fs.(*PVFS).CreateStriped(c, "f", 16<<10, 3, 5) }
	cases := []struct {
		name   string
		fs     func(*machine.Machine) FileSystem
		create func(FileSystem, Client) (File, error)
	}{
		{"xfs", xfs, plain},
		{"pvfs", pvfs, plain},
		{"pvfs-striped", pvfs, striped},
		{"pvfs-placed", pvfs, placed},
		{"gpfs", gpfs, plain},
		{"gpfs-placed", gpfs, placed},
	}
	const off = 12_345
	for _, tc := range cases {
		for _, n := range []int{60 << 10, 1 << 20} {
			t.Run(fmt.Sprintf("%s/%d", tc.name, n), func(t *testing.T) {
				fs := tc.fs(testMachine())
				data := make([]byte, n)
				buf := make([]byte, n)
				var write, read float64
				eng := sim.NewEngine()
				eng.Spawn("c", func(p *sim.Proc) {
					c := Client{Proc: p, Node: 0}
					f, err := tc.create(fs, c)
					if err != nil {
						panic(err)
					}
					write = testing.AllocsPerRun(20, func() { f.WriteAt(c, data, off) })
					read = testing.AllocsPerRun(20, func() { f.ReadAt(c, buf, off) })
				})
				if err := eng.Run(); err != nil {
					t.Fatal(err)
				}
				if write != 0 || read != 0 {
					t.Errorf("a blocking request allocates: write %v, read %v times a call", write, read)
				}
			})
		}
	}
}
