package castore

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// benchArray is the Tiny hierarchy's field arrays laid end to end and
// tiled to 4 MiB: real field bytes, some thirty chunks at DefaultParams.
func benchArray() []byte {
	arrays := tinyArrays()
	all := arrays[len(arrays)-1].data
	out := make([]byte, 0, 4<<20)
	for len(out) < cap(out) {
		out = append(out, all[:min(len(all), cap(out)-len(out))]...)
	}
	return out
}

var (
	boundsSink []int
	keySink    Key
	chunkSink  []byte
)

// BenchmarkSplitBounds is the chunker's cost per array at the checkpoint
// paths' parameters.
func BenchmarkSplitBounds(b *testing.B) {
	data := benchArray()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boundsSink = SplitBounds(data, DefaultParams())
	}
}

// BenchmarkKeyOf is the content address of every chunk of the same array.
func BenchmarkKeyOf(b *testing.B) {
	chunks := Split(benchArray(), DefaultParams())
	var n int64
	for _, c := range chunks {
		n += int64(len(c))
	}
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range chunks {
			keySink = KeyOf(c)
		}
	}
}

// BenchmarkStoreGet reads one 64 KiB chunk back through Get, two replicas on
// chiba/pvfs: the payload is lent, so B/op and allocs/op are the device
// read's alone.
func BenchmarkStoreGet(b *testing.B) {
	chunk := benchArray()[:64<<10]
	mach := machine.New(machine.ByName("chiba"))
	fs := pfs.NewPVFS(mach, pfs.DefaultPVFS())
	eng := sim.NewEngine()
	eng.Spawn("c", func(p *sim.Proc) {
		c := pfs.Client{Proc: p, Node: 0}
		s := New(fs, Options{Replicas: 2})
		s.BeginGeneration(0)
		ref, err := s.Put(c, chunk, KeyOf(chunk), func() []byte { return chunk })
		if err != nil {
			b.Error(err)
			return
		}
		b.SetBytes(int64(len(chunk)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if chunkSink, err = s.Get(c, ref); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}
