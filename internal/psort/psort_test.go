package psort

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/mpi"
)

func cfg() machine.Config {
	return machine.Config{
		Name: "t", Nodes: 16, ProcsPerNode: 1,
		WireLatency: 10e-6, LinkBW: 100e6, SendOverhead: 1e-6, RecvOverhead: 1e-6,
		MemLatency: 1e-6, MemCopyBW: 1e9, ComputeRate: 1e9,
	}
}

func makeRow(id int64, payload byte) []byte {
	row := make([]byte, 16)
	binary.LittleEndian.PutUint64(row, uint64(id))
	row[8] = payload
	return row
}

// splitRows cuts a buffer of 16-byte rows into its rows.
func splitRows(buf []byte) [][]byte {
	var rows [][]byte
	for p := 0; p+16 <= len(buf); p += 16 {
		rows = append(rows, buf[p:p+16])
	}
	return rows
}

func runSort(t *testing.T, nprocs int, perRank func(rank int) [][]byte) (results [][][]byte, sortedOK []bool) {
	t.Helper()
	results = make([][][]byte, nprocs)
	sortedOK = make([]bool, nprocs)
	_, err := mpi.Simulate(cfg(), nprocs, func(r *mpi.Rank) {
		rows := perRank(r.Rank())
		out := SampleSort(r, bytes.Join(rows, nil), 16, IDKey(0))
		results[r.Rank()] = splitRows(out)
		sortedOK[r.Rank()] = IsGloballySorted(r, out, 16, IDKey(0))
	})
	if err != nil {
		t.Fatal(err)
	}
	return results, sortedOK
}

func TestSampleSortBasic(t *testing.T) {
	nprocs := 4
	const perRankN = 100
	results, ok := runSort(t, nprocs, func(rank int) [][]byte {
		rng := rand.New(rand.NewSource(int64(rank)))
		rows := make([][]byte, perRankN)
		for i := range rows {
			rows[i] = makeRow(rng.Int63n(100000), byte(rank))
		}
		return rows
	})
	for rank, good := range ok {
		if !good {
			t.Fatalf("rank %d reports not globally sorted", rank)
		}
	}
	total := 0
	for _, rows := range results {
		total += len(rows)
	}
	if total != nprocs*perRankN {
		t.Fatalf("rows lost: %d != %d", total, nprocs*perRankN)
	}
}

func TestSampleSortPreservesRowsExactly(t *testing.T) {
	// Multiset of rows in == multiset of rows out (IDs unique so a map
	// check suffices, payload identifies the origin).
	nprocs := 3
	want := map[int64]byte{}
	results, _ := runSort(t, nprocs, func(rank int) [][]byte {
		var rows [][]byte
		for i := 0; i < 50; i++ {
			id := int64(rank*1000 + i*7)
			want[id] = byte(rank)
			rows = append(rows, makeRow(id, byte(rank)))
		}
		return rows
	})
	got := map[int64]byte{}
	for _, rows := range results {
		for _, row := range rows {
			got[int64(binary.LittleEndian.Uint64(row))] = row[8]
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for id, payload := range want {
		if got[id] != payload {
			t.Fatalf("row %d payload %d, want %d", id, got[id], payload)
		}
	}
}

func TestSampleSortSingleRank(t *testing.T) {
	results, ok := runSort(t, 1, func(rank int) [][]byte {
		return [][]byte{makeRow(5, 0), makeRow(1, 0), makeRow(3, 0)}
	})
	if !ok[0] {
		t.Fatal("single rank not sorted")
	}
	ids := []int64{}
	for _, row := range results[0] {
		ids = append(ids, int64(binary.LittleEndian.Uint64(row)))
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 3 || ids[2] != 5 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestSampleSortEmptyRanks(t *testing.T) {
	_, ok := runSort(t, 4, func(rank int) [][]byte {
		if rank != 2 {
			return nil
		}
		var rows [][]byte
		for i := 40; i > 0; i-- {
			rows = append(rows, makeRow(int64(i), 0))
		}
		return rows
	})
	for rank, good := range ok {
		if !good {
			t.Fatalf("rank %d not sorted with empty inputs elsewhere", rank)
		}
	}
}

func TestSampleSortAllEmpty(t *testing.T) {
	results, ok := runSort(t, 3, func(rank int) [][]byte { return nil })
	for rank := range results {
		if len(results[rank]) != 0 || !ok[rank] {
			t.Fatal("all-empty sort misbehaved")
		}
	}
}

func TestSampleSortDuplicateKeys(t *testing.T) {
	results, ok := runSort(t, 4, func(rank int) [][]byte {
		var rows [][]byte
		for i := 0; i < 30; i++ {
			rows = append(rows, makeRow(int64(i%5), byte(rank)))
		}
		return rows
	})
	for rank, good := range ok {
		if !good {
			t.Fatalf("rank %d not sorted with duplicates", rank)
		}
	}
	total := 0
	for _, rows := range results {
		total += len(rows)
	}
	if total != 120 {
		t.Fatalf("duplicate rows lost: %d", total)
	}
}

func TestSampleSortSkewedDistribution(t *testing.T) {
	// All keys concentrated in a narrow range on one rank: the sort must
	// still terminate and order correctly (balance may suffer).
	_, ok := runSort(t, 4, func(rank int) [][]byte {
		var rows [][]byte
		n := 10
		if rank == 0 {
			n = 500
		}
		for i := 0; i < n; i++ {
			rows = append(rows, makeRow(int64(rank*2+i%3), byte(rank)))
		}
		return rows
	})
	for rank, good := range ok {
		if !good {
			t.Fatalf("rank %d failed on skewed input", rank)
		}
	}
}

// Property: random row distributions are always globally sorted and
// conserved.
func TestSampleSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nprocs := rng.Intn(6) + 1
		counts := make([]int, nprocs)
		for i := range counts {
			counts[i] = rng.Intn(80)
		}
		idSets := make([][]int64, nprocs)
		for i := range idSets {
			for k := 0; k < counts[i]; k++ {
				idSets[i] = append(idSets[i], rng.Int63n(1000))
			}
		}
		results := make([][][]byte, nprocs)
		okAll := make([]bool, nprocs)
		_, err := mpi.Simulate(cfg(), nprocs, func(r *mpi.Rank) {
			var rows [][]byte
			for _, id := range idSets[r.Rank()] {
				rows = append(rows, makeRow(id, byte(r.Rank())))
			}
			out := SampleSort(r, bytes.Join(rows, nil), 16, IDKey(0))
			results[r.Rank()] = splitRows(out)
			okAll[r.Rank()] = IsGloballySorted(r, out, 16, IDKey(0))
		})
		if err != nil {
			return false
		}
		total, want := 0, 0
		for i := range counts {
			want += counts[i]
			total += len(results[i])
			if !okAll[i] {
				return false
			}
		}
		return total == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The order among rows with equal keys is part of every particle file's
// bytes: one rank (so the local sort alone), many rows per key, and the rows
// of a key must come out in the order they went in.
func TestLocalSortIsStable(t *testing.T) {
	const n = 4000
	rng := rand.New(rand.NewSource(3))
	rows := make([][]byte, n)
	for i := range rows {
		rows[i] = makeRow(rng.Int63n(50), 0)
		binary.LittleEndian.PutUint32(rows[i][8:], uint32(i)) // arrival order
	}
	results, _ := runSort(t, 1, func(int) [][]byte { return rows })
	out := results[0]
	for i := 1; i < len(out); i++ {
		ka, kb := IDKey(0)(out[i-1]), IDKey(0)(out[i])
		if ka > kb || ka == kb && binary.LittleEndian.Uint32(out[i-1][8:]) > binary.LittleEndian.Uint32(out[i][8:]) {
			t.Fatalf("row %d (key %d) precedes row %d (key %d) out of arrival order", i-1, ka, i, kb)
		}
	}
}

// BenchmarkSampleSort times the particle sort of a dump at the size
// paper_np8 runs it: 8 ranks, 128 Ki rows of 48 bytes a rank, random IDs.
// One iteration is the whole collective on a fresh world.
func BenchmarkSampleSort(b *testing.B) {
	const nprocs, perRank, rowSize = 8, 128 << 10, 48
	flat := make([][]byte, nprocs)
	for rank := range flat {
		flat[rank] = make([]byte, perRank*rowSize)
		rng := rand.New(rand.NewSource(int64(rank) + 1))
		for p := 0; p < len(flat[rank]); p += rowSize {
			binary.LittleEndian.PutUint64(flat[rank][p:], uint64(rng.Int63n(nprocs*perRank)))
		}
	}
	b.SetBytes(nprocs * perRank * rowSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := mpi.Simulate(cfg(), nprocs, func(r *mpi.Rank) {
			SampleSort(r, flat[r.Rank()], rowSize, IDKey(0))
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// refLocalSort is the local sort LocalSort replaced, kept as its reference:
// a stable sort of the row slices through the key closure.
func refLocalSort(rows [][]byte, key Key) {
	slices.SortStableFunc(rows, func(a, b []byte) int { return cmp.Compare(key(a), key(b)) })
}

// LocalSort against the closure-driven stable sort: random rows cut into
// random chunks, keys drawn from a range narrow enough for long runs of
// equal keys (the tie order is file bytes), wide enough for negative ones,
// and a row size that leaves a partial row at the end of some chunks.
func TestLocalSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		rowSize := 8 + rng.Intn(3)*4
		spread := int64(1) << uint(rng.Intn(40))
		var chunks [][]byte
		var rows [][]byte
		for c := rng.Intn(6); c >= 0; c-- {
			chunk := make([]byte, rng.Intn(40)*rowSize)
			rng.Read(chunk)
			for p := 0; p < len(chunk); p += rowSize {
				binary.LittleEndian.PutUint64(chunk[p:], uint64(rng.Int63n(spread)-spread/2))
				rows = append(rows, chunk[p:p+rowSize])
			}
			if rng.Intn(4) == 0 {
				chunk = append(chunk, byte(rng.Intn(256))) // a partial row, ignored
			}
			chunks = append(chunks, chunk)
		}
		refLocalSort(rows, IDKey(0))
		want := bytes.Join(rows, nil)
		_, err := mpi.Simulate(cfg(), 1, func(r *mpi.Rank) {
			if got := LocalSort(r, chunks, rowSize, IDKey(0)); !bytes.Equal(got, want) {
				t.Errorf("trial %d: %d rows of %d bytes sorted differently from the reference", trial, len(rows), rowSize)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
