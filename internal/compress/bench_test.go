package compress

import (
	"testing"

	"repro/internal/sim"
)

// benchField is the Tiny hierarchy's top-grid density field tiled to 4 MiB:
// real field bytes, sixteen container chunks.
func benchField() []byte {
	f := tinyHierarchy().Grids[0].Fields[0]
	out := make([]byte, 0, 4<<20)
	for len(out) < cap(out) {
		out = append(out, f[:min(len(f), cap(out)-len(out))]...)
	}
	return out
}

var benchSink []byte

// BenchmarkPack is the write path's codec cost per container: MB/s of raw
// field bytes in, B/op allocated for one 4 MiB Pack.
func BenchmarkPack(b *testing.B) {
	field := benchField()
	for _, name := range []string{"rle", "delta", "lzss"} {
		c, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(field)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = Pack(c, field, 0)
			}
		})
	}
}

// BenchmarkPackAll is a dump's batch: the 4 MiB field cut into 128 KiB
// arrays, packed by one compressor on every core (the memo forgotten every
// iteration). MB/s of raw bytes in; B/op is the containers, at their own
// length, and the batch's bookkeeping.
func BenchmarkPackAll(b *testing.B) {
	field := benchField()
	c, err := ByName("lzss")
	if err != nil {
		b.Fatal(err)
	}
	var arrays [][]byte
	for lo := 0; lo < len(field); lo += 128 << 10 {
		arrays = append(arrays, field[lo:lo+128<<10])
	}
	z := NewCompressor(c, DefaultCostModel())
	z.PackAll(arrays)
	b.SetBytes(int64(len(field)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Forget()
		z.PackAll(arrays)
	}
}

// BenchmarkUnpack is the restart path's: MB/s of raw bytes out.
func BenchmarkUnpack(b *testing.B) {
	field := benchField()
	c, err := ByName("lzss")
	if err != nil {
		b.Fatal(err)
	}
	blob := Pack(c, field, 0)
	b.Run("lzss", func(b *testing.B) {
		b.SetBytes(int64(len(field)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := Unpack(blob)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = out
		}
	})
}

// BenchmarkSqueeze is the charged write path per 4 MiB array: first packs an
// array the compressor has not seen (the memo forgotten every iteration),
// again presents the same array once more — a later dump, a replica, a
// re-dump — and must allocate nothing.
func BenchmarkSqueeze(b *testing.B) {
	field := benchField()
	c, err := ByName("lzss")
	if err != nil {
		b.Fatal(err)
	}
	for _, again := range []bool{false, true} {
		name := "first"
		if again {
			name = "again"
		}
		b.Run(name, func(b *testing.B) {
			z := NewCompressor(c, DefaultCostModel())
			onProc(b, func(p *sim.Proc) {
				z.Squeeze(p, field)
				b.SetBytes(int64(len(field)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !again {
						z.Forget()
					}
					benchSink = z.Squeeze(p, field)
				}
			})
		})
	}
}
