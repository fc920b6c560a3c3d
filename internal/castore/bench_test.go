package castore

import "testing"

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
