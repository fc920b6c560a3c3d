package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// testInputs covers the shapes the codecs see in the simulation: empty,
// tiny, constant runs, smooth float32 fields, high-entropy particle-like
// bytes, and sizes spanning several container chunks.
func testInputs(t *testing.T) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	smooth := make([]byte, 64*1024)
	for i := 0; i+4 <= len(smooth); i += 4 {
		v := float32(1.0 + 0.25*math.Sin(float64(i)/512))
		binary.LittleEndian.PutUint32(smooth[i:], math.Float32bits(v))
	}
	noisy := make([]byte, 300*1024) // > DefaultChunkSize: multi-chunk
	rng.Read(noisy)
	return map[string][]byte{
		"empty":    {},
		"one":      {0x5A},
		"tiny":     []byte("abcabcabcabc"),
		"constant": bytes.Repeat([]byte{0x3F}, 10000),
		"pattern":  bytes.Repeat([]byte{0, 0, 0x80, 0x3F}, 5000), // float32 1.0
		"smooth":   smooth,
		"noisy":    noisy,
		"odd":      append(bytes.Repeat([]byte{7}, 1001), 1, 2, 3), // not word-aligned
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for label, in := range testInputs(t) {
			enc := c.Compress(nil, in)
			dec, err := c.Decompress(nil, enc, len(in))
			if err != nil {
				t.Fatalf("%s/%s: decompress: %v", name, label, err)
			}
			if !bytes.Equal(dec, in) {
				t.Fatalf("%s/%s: round trip mismatch (%d bytes in, %d out)", name, label, len(in), len(dec))
			}
		}
	}
}

func TestCodecDeterminism(t *testing.T) {
	in := testInputs(t)["smooth"]
	for _, name := range Names() {
		c, _ := ByName(name)
		if !bytes.Equal(c.Compress(nil, in), c.Compress(nil, in)) {
			t.Fatalf("%s: nondeterministic output", name)
		}
	}
}

func TestCompressionEffectiveOnSmoothFields(t *testing.T) {
	inputs := testInputs(t)
	// delta and lzss must crush the constant float32 pattern; byte-level
	// rle needs byte runs, so it gets the constant input.
	cases := map[string][]byte{
		"delta": inputs["pattern"],
		"lzss":  inputs["pattern"],
		"rle":   inputs["constant"],
	}
	for name, in := range cases {
		c, _ := ByName(name)
		enc := c.Compress(nil, in)
		if len(enc) >= len(in)/2 {
			t.Errorf("%s: weak compression on its target input (%d -> %d)", name, len(in), len(enc))
		}
	}
}

func TestContainerRoundTrip(t *testing.T) {
	for _, name := range Names() {
		c, _ := ByName(name)
		for label, in := range testInputs(t) {
			blob := Pack(c, in, 0)
			if n, err := RawLen(blob); err != nil || n != int64(len(in)) {
				t.Fatalf("%s/%s: RawLen = %d, %v; want %d", name, label, n, err, len(in))
			}
			out, err := Unpack(blob)
			if err != nil {
				t.Fatalf("%s/%s: unpack: %v", name, label, err)
			}
			if !bytes.Equal(out, in) {
				t.Fatalf("%s/%s: container round trip mismatch", name, label)
			}
		}
	}
}

func TestContainerStoreRawFallback(t *testing.T) {
	// High-entropy input must not blow up: the container stores chunks raw
	// when the codec expands them.
	in := testInputs(t)["noisy"]
	for _, name := range []string{"rle", "delta", "lzss"} {
		c, _ := ByName(name)
		blob := Pack(c, in, 0)
		overhead := len(blob) - len(in)
		if overhead > headerSize+2*chunkHeaderSize+64 {
			t.Errorf("%s: noisy input expanded by %d bytes (fallback not engaging)", name, overhead)
		}
		out, err := Unpack(blob)
		if err != nil || !bytes.Equal(out, in) {
			t.Errorf("%s: fallback round trip failed: %v", name, err)
		}
	}
}

// TestCorruptedChunkSurfacesChecksumError flips every byte position in a
// small container and asserts corruption is reported as an error — never
// returned as silently wrong data.
func TestCorruptedChunkSurfacesChecksumError(t *testing.T) {
	in := testInputs(t)["smooth"][:8192]
	for _, name := range []string{"rle", "delta", "lzss"} {
		c, _ := ByName(name)
		blob := Pack(c, in, 4096)
		for pos := 0; pos < len(blob); pos++ {
			mut := append([]byte(nil), blob...)
			mut[pos] ^= 0xFF
			out, err := Unpack(mut)
			if err == nil && !bytes.Equal(out, in) {
				t.Fatalf("%s: corruption at byte %d decoded silently to wrong data", name, pos)
			}
		}
		// A data-byte flip specifically must mention the checksum.
		mut := append([]byte(nil), blob...)
		mut[len(mut)-1] ^= 0xFF
		_, err := Unpack(mut)
		if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("%s: corrupted chunk data gave %v, want checksum mismatch error", name, err)
		}
	}
}

func TestTruncatedContainer(t *testing.T) {
	c, _ := ByName("lzss")
	blob := Pack(c, testInputs(t)["smooth"], 0)
	for _, cut := range []int{0, 3, headerSize - 1, headerSize + 4, len(blob) - 1} {
		if _, err := Unpack(blob[:cut]); err == nil {
			t.Errorf("truncation to %d bytes not detected", cut)
		}
	}
}

func TestRegistry(t *testing.T) {
	if _, err := ByName("zstd-not-here"); err == nil || !strings.Contains(err.Error(), "known codecs") {
		t.Fatalf("unknown codec error should list known codecs, got %v", err)
	}
	want := []string{"delta", "lzss", "none", "rle"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	if c, err := Resolve("none"); c != nil || err != nil {
		t.Fatalf("Resolve(none) = %v, %v; want nil, nil", c, err)
	}
	if c, err := Resolve(""); c != nil || err != nil {
		t.Fatalf("Resolve('') = %v, %v; want nil, nil", c, err)
	}
	if c, err := Resolve("delta"); c == nil || err != nil {
		t.Fatalf("Resolve(delta) = %v, %v", c, err)
	}
	if _, err := Resolve("nope"); err == nil {
		t.Fatal("Resolve(nope) should fail")
	}
}

func TestCostModel(t *testing.T) {
	m := CostModel{CompressBps: 10e6, DecompressBps: 20e6}
	if got := m.CompressSeconds(10e6); got != 1 {
		t.Fatalf("CompressSeconds = %g, want 1", got)
	}
	if got := m.DecompressSeconds(10e6); got != 0.5 {
		t.Fatalf("DecompressSeconds = %g, want 0.5", got)
	}
	var free CostModel
	if free.CompressSeconds(1e9) != 0 || free.DecompressSeconds(1e9) != 0 {
		t.Fatal("zero-rate cost model should be free")
	}
}
