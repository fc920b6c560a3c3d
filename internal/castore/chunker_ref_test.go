package castore

import (
	"math/rand"
	"reflect"
	"testing"
)

// refSplitBounds is SplitBounds as it stood before it learned to skip the
// bytes that cannot cut, body verbatim: every byte goes through the hash and
// every position is tested. It is the oracle of
// TestSplitBoundsMatchesReference; nothing outside the tests may call it.
func refSplitBounds(data []byte, p Params) []int {
	p = p.normalized()
	if len(data) == 0 {
		return nil
	}
	mask := uint64(p.Avg - 1)
	var bounds []int
	start := 0
	var h uint64
	for i, b := range data {
		h = h<<1 + gearTable[b]
		if n := i - start + 1; n >= p.Min && (h&mask == mask || n >= p.Max) {
			bounds = append(bounds, i+1)
			start = i + 1
			h = 0
		}
	}
	if start < len(data) {
		bounds = append(bounds, len(data))
	}
	return bounds
}

// TestSplitBoundsMatchesReference holds the skipping chunker to the loop it
// replaced over generated parameters and inputs: Min on the hash's memory
// (64: nothing to skip), one past it, a value off every power of two, and
// the checkpoint paths' 32 Ki; Avg from Min up; inputs of random bytes, of
// few symbols and of one, at lengths around Min, Max and several chunks.
func TestSplitBoundsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1789))
	fill := func(n int) []byte {
		data := make([]byte, n)
		switch alphabet := []int{256, 256, 256, 4, 1}[rng.Intn(5)]; alphabet {
		case 1: // constant: the hash settles and either always or never cuts
			b := byte(rng.Intn(256))
			for i := range data {
				data[i] = b
			}
		case 256:
			rng.Read(data)
		default:
			for i := range data {
				data[i] = byte(rng.Intn(alphabet))
			}
		}
		return data
	}
	cases := 0
	for _, min := range []int{64, 65, 100, 32 << 10} {
		rounds := 1000
		if min > 1<<10 {
			rounds = 40 // each of these inputs is hundreds of KiB
		}
		for k := 0; k < rounds; k++ {
			p := Params{Min: min, Avg: min << rng.Intn(3), Max: min << (1 + rng.Intn(4))}
			if rng.Intn(4) == 0 {
				p.Avg += rng.Intn(min) // not a power of two: normalized rounds it down
			}
			n := []int{
				rng.Intn(min + 2),                    // at most one position can cut
				min - 2 + rng.Intn(5),                // around the first legal cut
				p.normalized().Max - 2 + rng.Intn(5), // around the Max cut
				rng.Intn(6 * p.normalized().Max),     // several chunks
			}[rng.Intn(4)]
			data := fill(n)
			got, want := SplitBounds(data, p), refSplitBounds(data, p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Params %+v, %d bytes: bounds %v, reference %v", p, n, got, want)
			}
			cases++
		}
	}
	if cases < 2000 {
		t.Fatalf("only %d generated cases", cases)
	}
}
