package castore

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzChunker checks the two chunker invariants on arbitrary input:
// split → join is the identity, and the boundaries are invariant under
// re-chunking the stream from any cut (the hash resets at each cut, so
// the tail's bounds are a pure function of the tail's bytes). It also holds
// SplitBounds to the loop it replaced (refSplitBounds) with Min on, one
// past and well past the hash's memory, so the skip runs under the fuzzer.
func FuzzChunker(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello world"))
	f.Add(testData(4096, 3))
	f.Add(testData(40_000, 11))
	f.Add(bytes.Repeat([]byte{0}, 2000))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range []Params{{Min: 64, Avg: 128, Max: 512}, {Min: 65, Avg: 128, Max: 300}, {Min: 100, Avg: 64, Max: 1000}} {
			if got, want := SplitBounds(data, p), refSplitBounds(data, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("Params %+v: bounds %v, reference %v", p, got, want)
			}
		}
		p := Params{Min: 64, Avg: 128, Max: 512}.normalized()
		bounds := SplitBounds(data, p)
		if len(data) == 0 {
			if bounds != nil {
				t.Fatalf("empty input produced bounds %v", bounds)
			}
			return
		}
		lo := 0
		for i, hi := range bounds {
			if hi <= lo {
				t.Fatalf("bounds not strictly increasing: %v", bounds)
			}
			if n := hi - lo; n > p.Max || (n < p.Min && i != len(bounds)-1) {
				t.Fatalf("chunk %d size %d violates [%d, %d]", i, n, p.Min, p.Max)
			}
			lo = hi
		}
		if bounds[len(bounds)-1] != len(data) {
			t.Fatalf("bounds end at %d, want %d", bounds[len(bounds)-1], len(data))
		}
		if got := join(Split(data, p)); !bytes.Equal(got, data) {
			t.Fatal("split+join is not identity")
		}
		for i, c := range bounds[:len(bounds)-1] {
			tail := SplitBounds(data[c:], p)
			want := bounds[i+1:]
			if len(tail) != len(want) {
				t.Fatalf("re-chunk from %d: %d bounds, want %d", c, len(tail), len(want))
			}
			for j := range tail {
				if tail[j]+c != want[j] {
					t.Fatalf("re-chunk from %d: bound %d moved", c, j)
				}
			}
		}
	})
}
