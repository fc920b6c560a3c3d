package castore

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/amr"
	"repro/internal/golden"
)

// chunkerInput is one named array of the chunker golden's input table.
type chunkerInput struct {
	name string
	data []byte
}

// tinyArrays returns every field array and one particle array of
// enzo.Tiny()'s hierarchy (parameters repeated: enzo imports this package),
// plus all the field arrays laid end to end — the only input here long
// enough for DefaultParams to cut by content.
func tinyArrays() []chunkerInput {
	h := amr.BuildHierarchy([3]int{16, 16, 16}, 800, 2, 2.0, 1789)
	var arrays []chunkerInput
	var all []byte
	for _, g := range h.Grids {
		for fi, f := range g.Fields {
			arrays = append(arrays, chunkerInput{fmt.Sprintf("tiny/g%d/%s", g.ID, amr.FieldNames[fi]), f})
			all = append(all, f...)
		}
	}
	arrays = append(arrays,
		chunkerInput{"tiny/g0/position_x", h.Grids[0].Particles.Arrays[1]},
		chunkerInput{"tiny/fields", all})
	return arrays
}

// TestChunkerGolden pins the content-defined cut points and the chunk keys
// to a file generated before SplitBounds learned to skip the bytes that
// cannot cut: for every Tiny array, at DefaultParams and at {64, 256, 1024},
// the chunk count and the SHA-256 of every bound and key in order. Chunk
// bounds decide what dedups, so a bound that moves here moves
// BENCH_dedup.json.
//
// Regenerate with: go test ./internal/castore -run '^TestChunkerGolden$' -update
// — only in a PR that says which cut moved and why.
func TestChunkerGolden(t *testing.T) {
	var got []string
	arrays := tinyArrays()
	for _, p := range []Params{DefaultParams(), {Min: 64, Avg: 256, Max: 1024}} {
		for _, in := range arrays {
			var list strings.Builder
			bounds := SplitBounds(in.data, p)
			lo := 0
			for _, hi := range bounds {
				k := KeyOf(in.data[lo:hi])
				fmt.Fprintf(&list, "%d %016x %d\n", hi, k.Sum, k.N)
				lo = hi
			}
			got = append(got, fmt.Sprintf("%s/%d-%d-%d chunks=%d %x",
				in.name, p.Min, p.Avg, p.Max, len(bounds), sha256.Sum256([]byte(list.String()))))
		}
	}
	golden.Check(t, "testdata/chunker.golden", []byte(strings.Join(got, "\n")+"\n"))
}
