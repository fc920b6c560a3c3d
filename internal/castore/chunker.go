// Package castore implements the content-addressed checkpoint store: a
// deterministic content-defined chunker, CRC-keyed chunk identities, a
// per-generation manifest mapping each grid array to its chunk list, and a
// dedup store that writes a chunk's bytes once across the retained
// generations while placing k replicas of every container on distinct data
// servers (Grid-Datafarm style: reads route to the least-loaded live
// replica and fail over instead of failing).
//
// The chunker is the gear-hash content-defined scheme: a rolling hash is
// rebuilt from zero at every chunk start, so chunk boundaries are a pure
// function of the bytes from the previous cut onward. Splitting a stream
// and re-chunking the tail from any cut yields the same remaining cuts —
// the invariance the fuzz target checks — and an insertion early in a
// generation cannot shift the boundaries of later, unchanged regions,
// which is what makes cross-generation dedup effective. The hash remembers
// only its last 64 bytes and no cut is legal before Min, so SplitBounds does
// not feed it the bytes of a chunk that cannot reach the first legal cut;
// testdata/chunker.golden pins the bounds and keys, and the byte-by-byte
// loop it replaced is the oracle in chunker_ref_test.go.
//
// Bounds and keys are pure functions of the bytes, and the package keeps no
// table of them: a writer that presents an unchanged array again keeps its
// own (enzo's chunk table) and hands Put the key; a reader always derives the
// key again from what it fetched.
package castore

import "hash/crc64"

// Params bounds the content-defined chunk sizes. Avg is rounded down to a
// power of two (the boundary test masks the rolling hash), Min prevents
// pathological tiny chunks, Max bounds the damage radius of one lost chunk.
type Params struct {
	Min int
	Avg int
	Max int
}

// DefaultParams is the calibration used by the checkpoint paths: large
// enough that per-chunk request overhead stays small on the PVFS model,
// small enough that a dump produces many chunks per rank to dedup and
// stripe.
func DefaultParams() Params { return Params{Min: 32 << 10, Avg: 128 << 10, Max: 512 << 10} }

// normalized clamps nonsensical parameters into a usable shape instead of
// silently misbehaving: zero values take the defaults, Avg is forced to a
// power of two in [Min, ...], Max to at least Avg.
func (p Params) normalized() Params {
	d := DefaultParams()
	if p.Min <= 0 {
		p.Min = d.Min
	}
	if p.Avg <= 0 {
		p.Avg = d.Avg
	}
	if p.Max <= 0 {
		p.Max = d.Max
	}
	if p.Min < gearMemory {
		p.Min = gearMemory
	}
	if p.Avg < p.Min {
		p.Avg = p.Min
	}
	// Round Avg down to a power of two for the mask test.
	pow := 1
	for pow*2 <= p.Avg {
		pow *= 2
	}
	p.Avg = pow
	if p.Max < 2*p.Avg {
		p.Max = 2 * p.Avg
	}
	return p
}

// gearMemory is how many bytes back the rolling hash can see: each step
// shifts it left by one, so the 65th-last byte has left its 64 bits.
// normalized keeps Min at or above it.
const gearMemory = 64

// gearTable is the chunker's byte-to-hash mixing table, generated
// deterministically (splitmix64) so every build chunks identically.
var gearTable = func() [256]uint64 {
	var t [256]uint64
	x := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		t[i] = z ^ (z >> 31)
	}
	return t
}()

// SplitBounds returns the chunk end offsets of data (strictly increasing,
// the last equals len(data)); nil for empty input. The rolling hash resets
// at every cut, so SplitBounds(data[c:]) for any returned cut c equals the
// remaining bounds shifted by c.
//
// The hash is h<<1 + gear[b] in 64 bits, so a byte is shifted out of it
// after gearMemory steps, and no cut is legal before Min bytes: the hash at
// the first legal cut is the same whether or not it was fed the chunk's
// first Min-gearMemory bytes. They are skipped; the next gearMemory-1 are
// hashed without a test; from there on every position is tested.
func SplitBounds(data []byte, p Params) []int {
	p = p.normalized()
	if len(data) == 0 {
		return nil
	}
	mask := uint64(p.Avg - 1)
	var bounds []int
	for start := 0; start < len(data); {
		cut := min(start+p.Max, len(data)) // the Max cut, or the short last chunk
		if first := start + p.Min - 1; first < cut {
			var h uint64
			for _, b := range data[first+1-gearMemory : first] {
				h = h<<1 + gearTable[b]
			}
			for i := first; i < cut; i++ {
				if h = h<<1 + gearTable[data[i]]; h&mask == mask {
					cut = i + 1
					break
				}
			}
		}
		bounds = append(bounds, cut)
		start = cut
	}
	return bounds
}

// Split slices data into its content-defined chunks (views, not copies).
func Split(data []byte, p Params) [][]byte {
	bounds := SplitBounds(data, p)
	out := make([][]byte, len(bounds))
	lo := 0
	for i, hi := range bounds {
		out[i] = data[lo:hi]
		lo = hi
	}
	return out
}

// Key is a chunk's content address: the CRC-64/ECMA of its raw bytes plus
// its length. Two distinct chunks colliding on both is vanishingly unlikely
// for checkpoint-scale data, and the read path re-derives the key from the
// fetched bytes, so an aliased or corrupted chunk is detected, never
// silently restored.
type Key struct {
	Sum uint64
	N   uint32
}

var crcTab = crc64.MakeTable(crc64.ECMA)

// KeyOf computes the content address of one raw (uncompressed) chunk.
func KeyOf(chunk []byte) Key {
	return Key{Sum: crc64.Checksum(chunk, crcTab), N: uint32(len(chunk))}
}
