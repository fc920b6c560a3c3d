package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
)

// The lzss matcher and decoder as they stood before the ring matcher and the
// append-form decoder replaced them, bodies verbatim: a chain array as long as
// the input, candidates compared a byte at a time, tokens emitted through a
// 17-byte group buffer, one appended byte per decoded byte. They are the
// oracle of TestLZSSMatchesReference and FuzzLZSSMatchesReference; nothing
// outside the tests may call them.

func refLZHash(b []byte) uint32 {
	return (uint32(b[0])<<16 | uint32(b[1])<<8 | uint32(b[2])) * 2654435761 >> (32 - lzHashBits)
}

func refLZSSCompress(src []byte) []byte {
	out := make([]byte, 0, len(src)/2+16)
	head := make([]int32, 1<<lzHashBits)
	prev := make([]int32, len(src))
	for i := range head {
		head[i] = -1
	}

	var group [17]byte // flag byte + up to 8 two-byte tokens
	groupLen := 1
	groupBits := 0
	flush := func() {
		if groupBits > 0 {
			out = append(out, group[:groupLen]...)
			group[0] = 0
			groupLen = 1
			groupBits = 0
		}
	}
	emitLiteral := func(b byte) {
		group[groupLen] = b
		groupLen++
		groupBits++
		if groupBits == 8 {
			flush()
		}
	}
	emitMatch := func(dist, length int) {
		group[0] |= 1 << groupBits
		group[groupLen] = byte(dist & 0xFF)
		group[groupLen+1] = byte((dist>>8)<<4 | (length - lzMinMatch))
		groupLen += 2
		groupBits++
		if groupBits == 8 {
			flush()
		}
	}
	insert := func(i int) {
		if i+lzMinMatch <= len(src) {
			h := refLZHash(src[i:])
			prev[i] = head[h]
			head[h] = int32(i)
		}
	}

	i := 0
	for i < len(src) {
		bestLen, bestDist := 0, 0
		if i+lzMinMatch <= len(src) {
			limit := len(src) - i
			if limit > lzMaxMatch {
				limit = lzMaxMatch
			}
			for cand, steps := head[refLZHash(src[i:])], 0; cand >= 0 && steps < lzMaxChain; cand, steps = prev[cand], steps+1 {
				c := int(cand)
				if i-c > lzWindow {
					break
				}
				l := 0
				for l < limit && src[c+l] == src[i+l] {
					l++
				}
				if l > bestLen {
					bestLen, bestDist = l, i-c
					if l == limit {
						break
					}
				}
			}
		}
		if bestLen >= lzMinMatch {
			emitMatch(bestDist-1, bestLen)
			for k := 0; k < bestLen; k++ {
				insert(i + k)
			}
			i += bestLen
		} else {
			emitLiteral(src[i])
			insert(i)
			i++
		}
	}
	flush()
	return out
}

func refLZSSDecompress(src []byte, rawLen int) ([]byte, error) {
	out := make([]byte, 0, capHint(int64(rawLen)))
	i := 0
	for i < len(src) {
		flags := src[i]
		i++
		for bit := 0; bit < 8 && i < len(src); bit++ {
			if flags&(1<<bit) == 0 {
				out = append(out, src[i])
				i++
			} else {
				if i+2 > len(src) {
					return nil, fmt.Errorf("compress: lzss match token truncated at %d", i)
				}
				dist := (int(src[i]) | int(src[i+1]>>4)<<8) + 1
				length := int(src[i+1]&0x0F) + lzMinMatch
				i += 2
				start := len(out) - dist
				if start < 0 {
					return nil, fmt.Errorf("compress: lzss match reaches before window start")
				}
				for k := 0; k < length; k++ {
					out = append(out, out[start+k])
				}
			}
			if len(out) > rawLen {
				return nil, fmt.Errorf("compress: lzss output exceeds declared size %d", rawLen)
			}
		}
	}
	if len(out) != rawLen {
		return nil, fmt.Errorf("compress: lzss output is %d bytes, want %d", len(out), rawLen)
	}
	return out, nil
}

// lzssDecodedLen walks a token stream the way the decoders do and returns
// how many bytes it declares, without looking at distances (a truncated
// match token ends the walk).
func lzssDecodedLen(src []byte) int {
	n, i := 0, 0
	for i < len(src) {
		flags := src[i]
		i++
		for bit := 0; bit < 8 && i < len(src); bit++ {
			if flags&(1<<bit) == 0 {
				n, i = n+1, i+1
			} else {
				if i+2 > len(src) {
					return n
				}
				n, i = n+int(src[i+1]&0x0F)+lzMinMatch, i+2
			}
		}
	}
	return n
}

// checkLZSSAgainstReference holds the codec to the reference on one input:
// the encoder byte for byte, and the decoder — fed data itself as a stream,
// under three declared lengths — in output and in error-or-not. Both run
// behind a non-empty dst, which must come back untouched.
func checkLZSSAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	prefix := []byte("neighbouring chunk")
	var c lzssCodec

	want := refLZSSCompress(data)
	got := c.Compress(append([]byte(nil), prefix...), data)
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("Compress of %d bytes wrote into dst's prefix", len(data))
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		t.Fatalf("Compress of %d bytes differs from the reference: %d bytes, want %d", len(data), len(got), len(want))
	}
	if bare := c.Compress(nil, data); !bytes.Equal(bare, want) {
		t.Fatalf("Compress(nil, …) of %d bytes differs from the reference", len(data))
	}
	dec, err := c.Decompress(append([]byte(nil), prefix...), want, len(data))
	if err != nil || !bytes.Equal(dec[len(prefix):], data) || !bytes.HasPrefix(dec, prefix) {
		t.Fatalf("round trip of %d bytes behind a prefix failed: %v", len(data), err)
	}

	for _, rawLen := range []int{lzssDecodedLen(data), 97, len(data)} {
		wantDec, wantErr := refLZSSDecompress(data, rawLen)
		dst := append([]byte(nil), prefix...)
		gotDec, gotErr := c.Decompress(dst, data, rawLen)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Decompress(rawLen %d): error %v, reference %v", rawLen, gotErr, wantErr)
		}
		if !bytes.Equal(dst, prefix) {
			t.Fatalf("Decompress(rawLen %d) wrote into dst's prefix", rawLen)
		}
		if gotErr != nil {
			if gotDec != nil {
				t.Fatalf("Decompress(rawLen %d) returned %d bytes with error %v", rawLen, len(gotDec), gotErr)
			}
			continue
		}
		if !bytes.HasPrefix(gotDec, prefix) || !bytes.Equal(gotDec[len(prefix):], wantDec) {
			t.Fatalf("Decompress(rawLen %d) differs from the reference", rawLen)
		}
	}
}

// lzssEdgeInputs are built to sit on the matcher's four rules: the chain
// cap, the window edge, the end of input and the shortest inputs.
func lzssEdgeInputs() []codecInput {
	rng := rand.New(rand.NewSource(22))
	var edge []codecInput

	// Chain cap: a hundred positions share one hash and differ right after
	// it; the one full match is the oldest, beyond the 64th candidate, so
	// whether it is found depends on counting rejected candidates as steps.
	for _, blocks := range []int{63, 64, 65, 100} {
		b := []byte("abc-the-long-match")
		for k := 0; k < blocks; k++ {
			b = append(b, 'a', 'b', 'c', byte(k), byte(k>>8)|0x80)
		}
		b = append(b, "abc-the-long-match"...)
		edge = append(edge, codecInput{fmt.Sprintf("chaincap/%d", blocks), b})
	}

	// Window edge: an 18-byte pattern, filler that cannot match it, and the
	// pattern again at distance 4095, 4096 (legal) and 4097 (not).
	pattern := []byte("<window-edge-18b!>")
	for _, dist := range []int{lzWindow - 1, lzWindow, lzWindow + 1} {
		b := append([]byte(nil), pattern...)
		for len(b) < dist {
			b = append(b, byte('0'+rng.Intn(10)))
		}
		b = append(b, pattern...)
		b = append(b, "tail"...)
		edge = append(edge, codecInput{fmt.Sprintf("distance/%d", dist), b})
		// The same with the second occurrence ending on the last byte.
		edge = append(edge, codecInput{fmt.Sprintf("distance/%d/last", dist), b[:len(b)-4]})
	}

	// A match ending on the last byte, at every length, and one cut short
	// by the end of input.
	for l := lzMinMatch; l <= lzMaxMatch+1; l++ {
		b := []byte("0123456789abcdefghijXYZ")
		b = append(b, b[:l]...)
		edge = append(edge, codecInput{fmt.Sprintf("lastbyte/%d", l), b})
	}

	// n in 0..4: too short to hash, just long enough, one more.
	for n := 0; n <= 4; n++ {
		edge = append(edge,
			codecInput{fmt.Sprintf("short/same/%d", n), bytes.Repeat([]byte{'x'}, n)},
			codecInput{fmt.Sprintf("short/distinct/%d", n), []byte("wxyz")[:n]})
	}
	return edge
}

// generatedLZSSInput draws one input: a short alphabet (long chains) or all
// bytes, with stretches copied from up to a little more than a window back.
func generatedLZSSInput(rng *rand.Rand) []byte {
	n := rng.Intn(3000)
	if rng.Intn(8) == 0 {
		n += lzWindow + rng.Intn(3000)
	}
	alphabet := []int{1, 2, 3, 4, 16, 256}[rng.Intn(6)]
	b := make([]byte, 0, n)
	for len(b) < n {
		if back := 1 + rng.Intn(lzWindow+8); rng.Intn(4) == 0 && back <= len(b) {
			for k, l := 0, 1+rng.Intn(40); k < l && len(b) < n; k++ {
				b = append(b, b[len(b)-back])
			}
			continue
		}
		for k, l := 0, 1+rng.Intn(24); k < l && len(b) < n; k++ {
			b = append(b, byte(rng.Intn(alphabet)))
		}
	}
	return b
}

// TestLZSSMatchesReference holds the ring matcher and the append-form
// decoder to the kernels they replaced: the fixed input table, the inputs
// built for the matcher's edges, 2,500 generated inputs, and for each of
// those its own stream with a byte flipped, fed to both decoders.
func TestLZSSMatchesReference(t *testing.T) {
	for _, in := range append(codecTable(t), lzssEdgeInputs()...) {
		t.Run(in.name, func(t *testing.T) { checkLZSSAgainstReference(t, in.data) })
	}
	rng := rand.New(rand.NewSource(1789))
	for k := 0; k < 2500; k++ {
		data := generatedLZSSInput(rng)
		checkLZSSAgainstReference(t, data)
		if stream := refLZSSCompress(data); len(stream) > 0 {
			stream[rng.Intn(len(stream))] ^= byte(1 + rng.Intn(255))
			checkLZSSAgainstReference(t, stream)
		}
	}
}

// FuzzLZSSMatchesReference is the same comparison on the fuzzer's inputs:
// new against reference encoder byte for byte, new against reference decoder
// on arbitrary bytes in output and in error-or-not, behind a dst prefix that
// must come back untouched.
func FuzzLZSSMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("abcabcabcabc"))
	f.Add(bytes.Repeat([]byte{0, 0, 0x80, 0x3F}, 64))
	f.Add([]byte{0x01, 0x00, 0x0F})       // a match token with nothing before it
	f.Add([]byte{0x02, 'a', 0x00, 0x0F})  // an overlapping match: distance 1, length 18
	f.Add([]byte{0x00, 1, 2, 3, 4, 5, 6}) // a short all-literal group
	for _, in := range lzssEdgeInputs() {
		f.Add(in.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkLZSSAgainstReference(t, data) })
}

// TestCorruptDistanceIsAnErrorNotANeighbourRead: chunks decode onto one
// buffer, so the only thing between a malformed token in a chunk whose CRC
// matches (a writer bug, a collision — a flipped device byte fails the CRC
// first) and a silent copy out of the previous chunk is the decoder's
// window-start check. The container here has a sound first chunk and a
// second whose first token points 1…4,096 bytes back, checksummed as
// written; Unpack must refuse it, naming chunk 1. Every codec with
// back-references has a row.
func TestCorruptDistanceIsAnErrorNotANeighbourRead(t *testing.T) {
	const chunkSize = 8192
	first := testInputs(t)["noisy"][:chunkSize] // stored raw: all of it is there to copy from
	for _, tc := range []struct {
		codec string
		// stream is a chunk whose first token copies length bytes from
		// dist bytes before the chunk's own first output byte.
		stream func(dist, length int) []byte
	}{
		{"lzss", func(dist, length int) []byte {
			return []byte{0x01, byte(dist - 1), byte((dist-1)>>8<<4 | (length - lzMinMatch))}
		}},
	} {
		c, err := ByName(tc.codec)
		if err != nil {
			t.Fatal(err)
		}
		for _, dist := range []int{1, 2, 17, 18, 19, 255, 256, 4095, 4096} {
			const length = lzMaxMatch
			stored := tc.stream(dist, length)
			blob := Pack(c, first, chunkSize)
			binary.LittleEndian.PutUint32(blob[12:], 2)
			binary.LittleEndian.PutUint64(blob[16:], uint64(len(first)+length))
			var hdr [chunkHeaderSize]byte
			binary.LittleEndian.PutUint32(hdr[0:], length)
			binary.LittleEndian.PutUint32(hdr[4:], uint32(len(stored)))
			binary.LittleEndian.PutUint32(hdr[8:], crc32.Checksum(stored, crcTable))
			hdr[12] = c.ID()
			blob = append(append(blob, hdr[:]...), stored...)

			out, err := Unpack(blob)
			if err == nil {
				t.Fatalf("%s: distance %d into the previous chunk decoded to %d bytes", tc.codec, dist, len(out))
			}
			if !strings.Contains(err.Error(), "chunk 1") || !strings.Contains(err.Error(), "before window start") {
				t.Fatalf("%s: distance %d: error %q does not name chunk 1's window start", tc.codec, dist, err)
			}
		}
	}
}
