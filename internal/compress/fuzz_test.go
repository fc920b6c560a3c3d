package compress

import (
	"bytes"
	"testing"
)

// The fuzz targets check two properties per codec: (1) compress →
// decompress round-trips arbitrary input exactly, and (2) decompressing
// arbitrary bytes never panics or silently succeeds with the wrong length
// — it either fails or produces exactly the declared size. They drive the
// pure codec functions plus the container layer, with no simulator
// involvement.

func fuzzCodec(f *testing.F, name string) {
	f.Helper()
	c, err := ByName(name)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(bytes.Repeat([]byte{0x3F}, 300))
	f.Add(bytes.Repeat([]byte{0, 0, 0x80, 0x3F}, 64))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Round trip through the raw codec.
		enc := c.Compress(nil, data)
		dec, err := c.Decompress(nil, enc, len(data))
		if err != nil {
			t.Fatalf("decompress of own output failed: %v", err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("round trip mismatch: %d bytes in, %d out", len(data), len(dec))
		}
		// Round trip through the container.
		out, err := Unpack(Pack(c, data, 512))
		if err != nil {
			t.Fatalf("container unpack failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("container round trip mismatch")
		}
		// Adversarial decode: treat the input as a codec stream. Any
		// outcome is fine except a panic or a wrong-length success.
		if dec, err := c.Decompress(nil, data, 97); err == nil && len(dec) != 97 {
			t.Fatalf("decompress returned %d bytes without error, want 97", len(dec))
		}
		// Adversarial container decode must never panic.
		if out, err := Unpack(data); err == nil {
			if n, lerr := RawLen(data); lerr != nil || int64(len(out)) != n {
				t.Fatal("container decode succeeded with inconsistent length")
			}
		}
	})
}

func FuzzRLE(f *testing.F)   { fuzzCodec(f, "rle") }
func FuzzDelta(f *testing.F) { fuzzCodec(f, "delta") }
func FuzzLZSS(f *testing.F)  { fuzzCodec(f, "lzss") }
