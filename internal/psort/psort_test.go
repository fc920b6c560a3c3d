package psort

import (
	"encoding/binary"
	"math/rand"
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

func runSort(t *testing.T, nprocs int, perRank func(rank int) [][]byte) (results [][][]byte, sortedOK []bool) {
	t.Helper()
	results = make([][][]byte, nprocs)
	sortedOK = make([]bool, nprocs)
	_, err := mpi.Simulate(cfg(), nprocs, func(r *mpi.Rank) {
		rows := perRank(r.Rank())
		out := SampleSort(r, rows, 16, IDKey(0))
		results[r.Rank()] = out
		sortedOK[r.Rank()] = IsGloballySorted(r, out, IDKey(0))
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
			out := SampleSort(r, rows, 16, IDKey(0))
			results[r.Rank()] = out
			okAll[r.Rank()] = IsGloballySorted(r, out, IDKey(0))
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
			rows := make([][]byte, perRank)
			for k := range rows {
				rows[k] = flat[r.Rank()][k*rowSize : (k+1)*rowSize]
			}
			SampleSort(r, rows, rowSize, IDKey(0))
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
