package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/amr"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// codecInput is one named row of the fixed input table the stream golden
// and the reference differential test share.
type codecInput struct {
	name string
	data []byte
}

// boundaryLengths sit on and around every length the lzss matcher branches
// on: the 3-byte hash (2, 3, 4), the 18-byte match cap (17, 18, 19), the
// 4 KiB window (4095, 4096, 4097) and the container's 256 KiB chunk.
var boundaryLengths = []int{0, 1, 2, 3, 4, 5, 17, 18, 19, 20, 4095, 4096, 4097, 8192, 65537, 262143, 262144}

// syntheticKinds are the byte shapes each boundary length is filled with.
var syntheticKinds = []struct {
	name string
	fill func(b []byte, rng *rand.Rand)
}{
	{"random", func(b []byte, rng *rand.Rand) { rng.Read(b) }},
	{"three", func(b []byte, rng *rand.Rand) { // long chains: few symbols, many equal hashes
		for i := range b {
			b[i] = "abc"[rng.Intn(3)]
		}
	}},
	{"periodic", func(b []byte, rng *rand.Rand) { // period 7: every match at a small distance
		for i := range b {
			b[i] = byte(i % 7)
		}
	}},
	{"zero", func(b []byte, rng *rand.Rand) {}},
	{"float", func(b []byte, rng *rand.Rand) { // a smooth float32 field, like the baryon arrays
		for i := 0; i+4 <= len(b); i += 4 {
			v := float32(1.0 + 0.25*math.Sin(float64(i)/512))
			binary.LittleEndian.PutUint32(b[i:], math.Float32bits(v))
		}
	}},
}

// tinyHierarchy is enzo.Tiny()'s hierarchy (the enzo package imports this
// one, so its parameters are repeated here).
func tinyHierarchy() *amr.Hierarchy {
	return amr.BuildHierarchy([3]int{16, 16, 16}, 800, 2, 2.0, 1789)
}

// codecTable is the fixed input table: the testInputs set, every boundary
// length in every synthetic shape, every field array and one particle array
// of the Tiny hierarchy, and one incompressible and one all-zero 1 MiB
// buffer. The order is fixed; the golden file is line per row.
func codecTable(t *testing.T) []codecInput {
	t.Helper()
	var table []codecInput
	named := testInputs(t)
	names := make([]string, 0, len(named))
	for name := range named {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		table = append(table, codecInput{"inputs/" + name, named[name]})
	}
	for _, kind := range syntheticKinds {
		for _, n := range boundaryLengths {
			b := make([]byte, n)
			kind.fill(b, rand.New(rand.NewSource(int64(n)+1)))
			table = append(table, codecInput{fmt.Sprintf("%s/%d", kind.name, n), b})
		}
	}
	h := tinyHierarchy()
	for _, g := range h.Grids {
		for fi, f := range g.Fields {
			table = append(table, codecInput{fmt.Sprintf("tiny/g%d/%s", g.ID, amr.FieldNames[fi]), f})
		}
	}
	table = append(table, codecInput{"tiny/g0/position_x", h.Grids[0].Particles.Arrays[1]})
	noise := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(noise)
	table = append(table,
		codecInput{"mib/incompressible", noise},
		codecInput{"mib/zero", make([]byte, 1<<20)})
	return table
}

// TestCodecStreamGolden pins every byte the codecs and the container emit to
// a file generated before the lzss matcher, the decoders and Pack were
// rewritten in append form: for each of rle, delta and lzss, the length and
// SHA-256 of Compress and of Pack(…, 0) over the fixed input table.
// Compressed sizes feed virtual time, so a stream that moves here moves
// every BENCH_*.json row with a codec in it.
//
// Regenerate with: go test ./internal/compress -run CodecStreamGolden -update-golden
// — only in a PR that says which stream moved and why.
func TestCodecStreamGolden(t *testing.T) {
	digest := func(b []byte) string { return fmt.Sprintf("%d:%x", len(b), sha256.Sum256(b)) }
	var got []string
	table := codecTable(t)
	for _, name := range []string{"rle", "delta", "lzss"} {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range table {
			enc := c.Compress(nil, in.data)
			blob := Pack(c, in.data, 0)
			if out, err := Unpack(blob); err != nil || !bytes.Equal(out, in.data) {
				t.Fatalf("%s/%s: container round trip failed: %v", name, in.name, err)
			}
			got = append(got, fmt.Sprintf("%s/%s compress=%s pack=%s", name, in.name, digest(enc), digest(blob)))
		}
	}
	golden := filepath.Join("testdata", "codec.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, test has %d rows (regenerate with -update-golden)", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("drifted from %s\n got %s\nwant %s", golden, got[i], want[i])
		}
	}
}
