package mpiio

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// pieceMsg encodes a header-only piece message from (off, len) pairs.
func pieceMsg(pieces []mpi.Run) []byte {
	msg := binary.LittleEndian.AppendUint32(nil, uint32(len(pieces)))
	for _, pc := range pieces {
		msg = binary.LittleEndian.AppendUint64(msg, uint64(pc.Off))
		msg = binary.LittleEndian.AppendUint64(msg, uint64(pc.Len))
	}
	return msg
}

// piecesOf decodes a piece message's headers.
func piecesOf(msg []byte) []mpi.Run {
	var out []mpi.Run
	for hp, end := 4, 4+16*pieceCount(msg); hp < end; hp += 16 {
		off, n := pieceAt(msg, hp)
		out = append(out, mpi.Run{Off: off, Len: n})
	}
	return out
}

// sortThenUnion is the reference extentUnion is held to: every piece of
// every message decoded, sorted by offset, and swept once, joining what
// touches or overlaps.
func sortThenUnion(msgs [][]byte) []mpi.Run {
	var all []mpi.Run
	for _, msg := range msgs {
		all = append(all, piecesOf(msg)...)
	}
	slices.SortFunc(all, func(a, b mpi.Run) int { return cmp.Compare(a.Off, b.Off) })
	var out []mpi.Run
	for _, pc := range all {
		if n := len(out); n > 0 && pc.Off <= out[n-1].Off+out[n-1].Len {
			if e := pc.Off + pc.Len; e > out[n-1].Off+out[n-1].Len {
				out[n-1].Len = e - out[n-1].Off
			}
			continue
		}
		out = append(out, pc)
	}
	return out
}

// unionCase generates the piece messages one aggregator might hear: 1–64
// sources, some silent (nil) or with nothing to say (count 0), each list
// ascending. The shapes are the ones that stress the merge tree differently:
// a lattice whose neighbouring sources hold neighbouring rows (joins at the
// first levels), lists dealt round-robin with gaps (never coalesce), one
// giant list among small ones, and random windows that touch, overlap, nest
// and repeat across sources (reads may).
func unionCase(rng *rand.Rand) [][]byte {
	k := 1 + rng.Intn(64)
	lists := make([][]mpi.Run, k)
	switch shape := rng.Intn(5); shape {
	case 0: // lattice: row y of source s is [y*k*w + s*w, +w)
		w, rows := int64(1+rng.Intn(64)), 1+rng.Intn(12)
		for s := range lists {
			for y := 0; y < rows; y++ {
				lists[s] = append(lists[s], mpi.Run{Off: (int64(y)*int64(k) + int64(s)) * w, Len: w})
			}
		}
	case 1: // dealt with gaps: nothing ever joins
		w, rows := int64(1+rng.Intn(32)), 1+rng.Intn(12)
		for s := range lists {
			for y := 0; y < rows; y++ {
				lists[s] = append(lists[s], mpi.Run{Off: (int64(y)*int64(k) + int64(s)) * (w + 1), Len: w})
			}
		}
	case 2: // one giant list, the others a few pieces each
		giant := rng.Intn(k)
		for s := range lists {
			n := rng.Intn(4)
			if s == giant {
				n = 200 + rng.Intn(800)
			}
			off := rng.Int63n(1000)
			for i := 0; i < n; i++ {
				l := 1 + rng.Int63n(40)
				lists[s] = append(lists[s], mpi.Run{Off: off, Len: l})
				off += l + rng.Int63n(3) // touching about a third of the time
			}
		}
	default: // random windows over a small range: touching, overlapping, nested, duplicate
		span := int64(50 + rng.Intn(2000))
		for s := range lists {
			if s > 0 && rng.Intn(4) == 0 {
				lists[s] = slices.Clone(lists[rng.Intn(s)]) // the same request twice
				continue
			}
			off := rng.Int63n(span)
			for n := rng.Intn(10); n > 0 && off < span; n-- {
				l := 1 + rng.Int63n(span/4+1)
				lists[s] = append(lists[s], mpi.Run{Off: off, Len: l})
				off += rng.Int63n(l + 20) // the next piece starts inside, at the end of, or past this one
			}
		}
	}
	msgs := make([][]byte, k)
	for s, l := range lists {
		switch {
		case len(l) > 0 && rng.Intn(8) == 0: // a partner whose runs skip this domain
		case len(l) == 0 && rng.Intn(2) == 0:
		default:
			msgs[s] = pieceMsg(l)
		}
	}
	return msgs
}

func checkUnion(t testing.TB, sc *fileScratch, msgs [][]byte) {
	t.Helper()
	sc.i64s.reset()
	sc.extentUnion(msgs)
	if want := sortThenUnion(msgs); !slices.Equal(sc.extents, want) {
		t.Fatalf("extentUnion over %d messages = %v, sort-then-union = %v", len(msgs), sc.extents, want)
	}
}

func TestExtentUnionMatchesSortThenUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var sc fileScratch
	for i := 0; i < 12000; i++ {
		checkUnion(t, &sc, unionCase(rng))
	}
	checkUnion(t, &sc, nil)
	checkUnion(t, &sc, [][]byte{nil, {0, 0, 0, 0}, nil})
}

// A source whose list descends is a bug upstream (the sweep emits ascending
// pieces); the merge tree would silently produce a wrong union from it.
func TestExtentUnionRejectsDescendingList(t *testing.T) {
	defer func() {
		if r := recover(); r != "mpiio: piece message not ascending" {
			t.Fatalf("recovered %v", r)
		}
	}()
	new(fileScratch).extentUnion([][]byte{pieceMsg([]mpi.Run{{Off: 100, Len: 10}, {Off: 0, Len: 10}})})
}

// FuzzExtentUnion derives up to 64 ascending lists from the input — two
// bytes a piece: the gap to (or, with the top bit, the step back into) the
// previous piece, and the length; a zero pair ends a list — and holds
// extentUnion to the sort-then-union reference.
func FuzzExtentUnion(f *testing.F) {
	f.Add([]byte{3, 4, 0, 4, 0, 0, 7, 4, 0x82, 9})
	f.Add([]byte{0, 1, 0, 0, 0, 0, 1, 1})
	f.Add(bytes.Repeat([]byte{2, 2}, 300))
	f.Fuzz(func(t *testing.T, in []byte) {
		var lists [][]mpi.Run
		var cur []mpi.Run
		var start, end int64
		for i := 0; i+1 < len(in) && len(lists) < 64; i += 2 {
			if in[i] == 0 && in[i+1] == 0 {
				lists, cur, start, end = append(lists, cur), nil, 0, 0
				continue
			}
			off := end + int64(in[i]&0x7f)
			if in[i]&0x80 != 0 { // back into the previous piece, never before its start
				off = max64(start, end-int64(in[i]&0x7f))
			}
			cur = append(cur, mpi.Run{Off: off, Len: 1 + int64(in[i+1])})
			start, end = off, max64(end, off+1+int64(in[i+1]))
		}
		lists = append(lists, cur)
		msgs := make([][]byte, len(lists))
		for s, l := range lists {
			if len(l) > 0 {
				msgs[s] = pieceMsg(l)
			}
		}
		checkUnion(t, new(fileScratch), msgs)
	})
}

// intersectInto is the per-aggregator cut the sweep replaced, kept as its
// oracle: for each of the runs, its overlap with [dLo,dHi) — file offsets,
// lengths and the matching buffer positions. Two passes over all the runs
// per domain.
func intersectInto(runs []mpi.Run, bufOff []int64, dLo, dHi int64) (offs, lens, bpos []int64) {
	for i, run := range runs {
		s := max64(run.Off, dLo)
		e := min64(run.Off+run.Len, dHi)
		if s >= e {
			continue
		}
		offs = append(offs, s)
		lens = append(lens, e-s)
		bpos = append(bpos, bufOff[i]+(s-run.Off))
	}
	return
}

// sweepCase generates one rank's view and the collective's access range:
// ascending runs with zero-length ones among them, gaps from none to several
// domains wide, now and then a run long enough to span three domains, and a
// global range that may start before and end after this rank's runs (empty
// domains at both ends). naggs often exceeds the number of runs.
func sweepCase(rng *rand.Rand) (runs []mpi.Run, lo, hi int64, naggs int) {
	naggs = 1 + rng.Intn(12)
	unit := int64(1 + rng.Intn(200))
	off := rng.Int63n(1000)
	lo = max64(0, off-rng.Int63n(3*unit+1)*int64(rng.Intn(2)))
	for n := rng.Intn(8); n > 0; n-- {
		l := rng.Int63n(unit + 1)
		switch rng.Intn(6) {
		case 0:
			l = 0
		case 1:
			l = 3*unit + rng.Int63n(unit+1)
		}
		runs = append(runs, mpi.Run{Off: off, Len: l})
		off += l + rng.Int63n(2*unit+1)*int64(rng.Intn(2))
	}
	hi = lo + 1
	if n := len(runs); n > 0 {
		hi = max64(hi, runs[n-1].Off+runs[n-1].Len)
	}
	hi += rng.Int63n(3*unit+1) * int64(rng.Intn(2))
	return runs, lo, hi, naggs
}

func TestSweepMatchesIntersectInto(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var a arena[byte]
	for i := 0; i < 12000; i++ {
		runs, lo, hi, naggs := sweepCase(rng)
		data := make([]byte, mpi.TotalLen(runs))
		rng.Read(data)
		bufOff := bufPrefixInto(make([]int64, len(runs)), runs)
		for _, payload := range [][]byte{data, nil} {
			a.reset()
			sw := sweep{runs: runs}
			for ag := 0; ag < naggs; ag++ {
				dLo, dHi := domain(lo, hi, naggs, ag)
				offs, lens, bpos := intersectInto(runs, bufOff, dLo, dHi)
				msg, count, total := sw.next(&a, dLo, dHi, payload)
				var wantPieces []mpi.Run
				var wantBytes []byte
				for p := range offs {
					wantPieces = append(wantPieces, mpi.Run{Off: offs[p], Len: lens[p]})
					wantBytes = append(wantBytes, data[bpos[p]:bpos[p]+lens[p]]...)
				}
				if payload == nil {
					wantBytes = nil
				}
				if count != len(offs) || total != mpi.TotalLen(wantPieces) || (count == 0) != (msg == nil) {
					t.Fatalf("case %d domain %d: sweep says %d pieces, %d bytes, msg nil=%v; oracle %d pieces %v",
						i, ag, count, total, msg == nil, len(offs), wantPieces)
				}
				if count == 0 {
					continue
				}
				if got := piecesOf(msg); !slices.Equal(got, wantPieces) {
					t.Fatalf("case %d domain %d of %v in [%d,%d)/%d: headers %v, oracle %v", i, ag, runs, lo, hi, naggs, got, wantPieces)
				}
				if got := msg[4+16*count:]; !bytes.Equal(got, wantBytes) {
					t.Fatalf("case %d domain %d: payload differs from the oracle's buffer positions", i, ag)
				}
			}
			sw.finish(int64(len(data)))
		}
	}
}

// collectiveError runs one collective access of every rank's runs on a
// forced two-phase path and returns the engine's error text.
func collectiveError(t *testing.T, np int, write, behind bool, runsOf func(rank int) []mpi.Run) string {
	t.Helper()
	eng := sim.NewEngine()
	mach := machine.New(testMachineCfg())
	fs := pfs.NewPVFS(mach, pfs.DefaultPVFS())
	mpi.NewWorld(eng, mach, np, func(r *mpi.Rank) {
		h := DefaultHints()
		h.CBForce, h.MinFDSize = true, 0
		f, err := Open(r, fs, "contract.dat", ModeCreate, h)
		if err != nil {
			panic(err)
		}
		runs := runsOf(r.Rank())
		buf := pattern(r.Rank(), int(mpi.TotalLen(runs)))
		var p *Pending
		if write {
			p = f.IssueWriteAtAll(behind, runs, buf)
		} else {
			p = f.IssueReadAtAll(behind, runs, buf)
		}
		if behind {
			p.Wait()
		}
		f.Close()
	})
	err := eng.Run()
	if err == nil {
		return ""
	}
	return err.Error()
}

// Two ranks writing the same bytes in one collective used to be "undefined"
// in a comment: the file kept whichever piece the aggregator's sort happened
// to put last. Now the aggregator that receives both refuses.
func TestCollectiveWriteRejectsOverlap(t *testing.T) {
	for _, behind := range []bool{false, true} {
		// Rank 1's second run starts 40 bytes early, inside rank 0's [400, 500).
		got := collectiveError(t, 4, true, behind, func(rank int) []mpi.Run {
			runs := interleavedRuns(0, 4000, 100, 4, rank)
			if rank == 1 {
				runs[1] = mpi.Run{Off: runs[1].Off - 40, Len: 140}
			}
			return runs
		})
		if want := "mpiio: overlapping collective write at [460, 500)"; !strings.Contains(got, want) {
			t.Errorf("behind=%v: run ended with %q, want it to name %q", behind, got, want)
		}
	}
}

// A view whose runs do not ascend used to compute the wrong extent
// (accessRange reads the first and the last run) and lose or misplace bytes
// without a word. The sweep visits every run once and refuses.
func TestCollectiveRejectsUnsortedRuns(t *testing.T) {
	for _, write := range []bool{true, false} {
		for _, behind := range []bool{false, true} {
			for _, bad := range []struct {
				name     string
				scramble func(runs []mpi.Run)
			}{
				{"swapped", func(runs []mpi.Run) { runs[0], runs[2] = runs[2], runs[0] }},
				{"last first", func(runs []mpi.Run) { slices.Reverse(runs) }},
				{"overlapping", func(runs []mpi.Run) { runs[2].Len += 160 }}, // into the next run
			} {
				got := collectiveError(t, 4, write, behind, func(rank int) []mpi.Run {
					runs := interleavedRuns(0, 4000, 50, 4, rank)
					if rank == 2 {
						bad.scramble(runs)
					}
					return runs
				})
				if want := "mpiio: runs not ascending"; !strings.Contains(got, want) {
					t.Errorf("write=%v behind=%v %s: run ended with %q, want %q", write, behind, bad.name, got, want)
				}
			}
		}
	}
}

// Every bundle a rank ever made is back on its free list once its handles
// are closed and its split collectives waited for: one for the handle, one
// per Begin that was outstanding at the same time — and a second open/close
// cycle makes no more.
func TestScratchBundlesReturnToTheRank(t *testing.T) {
	const np, outstanding = 4, 3
	counts := make([][2]int, np)
	runPVFS(t, np, func(r *mpi.Rank, fs pfs.FileSystem) {
		for cycle := 0; cycle < 2; cycle++ {
			f, err := Open(r, fs, "bundles.dat", ModeCreate, DefaultHints())
			if err != nil {
				panic(err)
			}
			var pend [outstanding]*Pending
			for j := range pend {
				runs := interleavedRuns(int64(j)*8000, 8000, 100, np, r.Rank())
				pend[j] = f.WriteAtAllBegin(runs, pattern(r.Rank(), int(mpi.TotalLen(runs))))
			}
			if n := len(*r.Scratch()); n != 0 && cycle == 0 {
				panic(fmt.Sprintf("%d bundles idle while every one made is in use", n))
			}
			for _, p := range pend {
				p.Wait()
			}
			f.Close()
			counts[r.Rank()][cycle] = len(*r.Scratch())
		}
		seen := map[any]bool{}
		for _, sc := range *r.Scratch() {
			if seen[sc] {
				panic("one bundle is on the free list twice")
			}
			seen[sc] = true
		}
	})
	for rank, c := range counts {
		if c != [2]int{1 + outstanding, 1 + outstanding} {
			t.Errorf("rank %d: %v bundles on the free list after the two cycles, want %d both times", rank, c, 1+outstanding)
		}
	}
}

// bbbUnionMsgs is what one aggregator of a 64-rank (Block,Block,Block)
// collective hears: 64 sources with 256 rows each. Joined, source s's row y
// is the s-th 64-byte block of the y-th 4 KiB line, so neighbours complete
// each other's lines; apart, every block keeps a byte of distance.
func bbbUnionMsgs(joined bool) [][]byte {
	w := int64(64)
	if !joined {
		w = 65
	}
	msgs := make([][]byte, 64)
	for s := range msgs {
		rows := make([]mpi.Run, 256)
		for y := range rows {
			rows[y] = mpi.Run{Off: (int64(y)*64 + int64(s)) * w, Len: 64}
		}
		msgs[s] = pieceMsg(rows)
	}
	return msgs
}

func BenchmarkExtentUnion(b *testing.B) {
	for _, bc := range []struct {
		name   string
		joined bool
	}{{"bbb-64x256", true}, {"never-coalesce-64x256", false}} {
		b.Run(bc.name, func(b *testing.B) {
			msgs := bbbUnionMsgs(bc.joined)
			var sc fileScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc.i64s.reset()
				sc.extentUnion(msgs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(64*256), "ns/piece")
			if want := map[bool]int{true: 1, false: 64 * 256}[bc.joined]; len(sc.extents) != want {
				b.Fatalf("%d extents, want %d", len(sc.extents), want)
			}
		})
	}
}
