package mpiio

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/twophase.golden from the current aggregator")

// goldenCase is one collective write-then-read pinned by twophase.golden:
// who holds which file extents under which hints. read is the view of the
// read-back; nil reads what was written.
type goldenCase struct {
	name  string
	np    int
	hints Hints
	write func(np, rank int) []mpi.Run
	read  func(np, rank int) []mpi.Run
}

func bbbView(np, rank int) []mpi.Run {
	pz, py, px := mpi.ProcGrid3D(np)
	return mpi.BlockDecompose3D([3]int{64, 64, 64}, pz, py, px, rank, 4).Flatten()
}

// goldenCases spans what the aggregator's request stream depends on: the
// (Block,Block,Block) lattice at three scales under every aggregator-count
// rule, collective buffers smaller than a domain, views with holes over whole
// domains, runs cut by two and by three domain boundaries, participants with
// nothing to contribute, and reads that overlap, nest and repeat across
// ranks.
func goldenCases() []goldenCase {
	var cases []goldenCase
	hints := func(edit func(h *Hints)) Hints {
		h := DefaultHints()
		edit(&h)
		return h
	}
	for _, np := range []int{4, 16, 64} {
		for _, minFD := range []int64{0, 4 << 10, DefaultHints().MinFDSize} {
			for _, cb := range []int{1, 3, 0} { // 0: every rank
				cases = append(cases, goldenCase{
					name:  fmt.Sprintf("bbb/np%d/minfd%d/cb%d", np, minFD, cb),
					np:    np,
					hints: hints(func(h *Hints) { h.MinFDSize, h.CBNodes = minFD, cb }),
					write: bbbView,
				})
			}
		}
	}
	// Collective buffer smaller than a domain: 256 KiB domains in 24 KiB
	// chunks, and three 350 KiB domains in 10,000-byte chunks.
	cases = append(cases,
		goldenCase{name: "smallcb/np16/default", np: 16, write: bbbView,
			hints: hints(func(h *Hints) { h.CBBufferSize = 24 << 10 })},
		goldenCase{name: "smallcb/np16/cb3", np: 16, write: bbbView,
			hints: hints(func(h *Hints) { h.CBBufferSize, h.MinFDSize, h.CBNodes = 10000, 0, 3 })},
	)
	// Rank 0 holds the two ends of the file, so its extent meets every
	// domain and its data only the first and last.
	skip := func(np, rank int) []mpi.Run {
		const size = 4000
		if rank == 0 {
			return []mpi.Run{{Off: 0, Len: 100}, {Off: size - 100, Len: 100}}
		}
		var runs []mpi.Run
		for off := int64(100 + 50*(rank-1)); off < size-100; off += 150 {
			runs = append(runs, mpi.Run{Off: off, Len: min64(50, size-100-off)})
		}
		return runs
	}
	for _, cb := range []int{3, 4} {
		cases = append(cases, goldenCase{name: fmt.Sprintf("skip/np4/cb%d", cb), np: 4, write: skip,
			hints: hints(func(h *Hints) { h.CBNodes, h.MinFDSize, h.CBForce = cb, 0, true })})
	}
	// Eight 1000-byte domains: rank 0's second run crosses two boundaries,
	// rank 1's run three; the rest deal the tail in 100-byte blocks.
	straddle := func(np, rank int) []mpi.Run {
		switch rank {
		case 0:
			return []mpi.Run{{Off: 0, Len: 300}, {Off: 500, Len: 2000}}
		case 1:
			return []mpi.Run{{Off: 300, Len: 200}, {Off: 2500, Len: 3100}}
		}
		return interleavedRuns(5600, 2400, 100, np-2, rank-2)
	}
	cases = append(cases,
		goldenCase{name: "straddle/np8/cb8", np: 8, write: straddle,
			hints: hints(func(h *Hints) { h.MinFDSize, h.CBForce = 0, true })},
		goldenCase{name: "straddle/np8/cb8/smallcb", np: 8, write: straddle,
			hints: hints(func(h *Hints) { h.MinFDSize, h.CBForce, h.CBBufferSize = 0, true, 700 })},
	)
	// Every third rank holds nothing.
	rankless := func(np, rank int) []mpi.Run {
		if rank%3 == 1 {
			return nil
		}
		holders, mine := 0, 0
		for s := 0; s < np; s++ {
			if s%3 != 1 {
				if s == rank {
					mine = holders
				}
				holders++
			}
		}
		return interleavedRuns(1<<20, 64<<10, 512, holders, mine)
	}
	cases = append(cases,
		goldenCase{name: "rankless/np8/default", np: 8, write: rankless, hints: DefaultHints()},
		goldenCase{name: "rankless/np8/minfd4k", np: 8, write: rankless,
			hints: hints(func(h *Hints) { h.MinFDSize = 4 << 10 })},
	)
	// Reads may overlap across ranks: ranks 0 and 1 ask for the same runs,
	// rank 2's are nested in them, rank 3's window overlaps all three and
	// touches the end of the file.
	dealt := func(np, rank int) []mpi.Run { return interleavedRuns(0, 16000, 250, np, rank) }
	overlapping := func(np, rank int) []mpi.Run {
		switch rank {
		case 0, 1:
			return []mpi.Run{{Off: 1000, Len: 4000}, {Off: 5000, Len: 3000}, {Off: 9000, Len: 500}}
		case 2:
			return []mpi.Run{{Off: 2000, Len: 100}, {Off: 2100, Len: 900}, {Off: 9100, Len: 100}}
		}
		return []mpi.Run{{Off: 0, Len: 1500}, {Off: 4500, Len: 5000}, {Off: 15000, Len: 1000}}
	}
	cases = append(cases,
		goldenCase{name: "overlapread/np4/cb4", np: 4, write: dealt, read: overlapping,
			hints: hints(func(h *Hints) { h.MinFDSize, h.CBForce = 0, true })},
		goldenCase{name: "overlapread/np4/cb3/smallcb", np: 4, write: dealt, read: overlapping,
			hints: hints(func(h *Hints) { h.MinFDSize, h.CBForce, h.CBNodes, h.CBBufferSize = 0, true, 3, 1200 })},
	)
	return cases
}

func sum(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)) }

// runGoldenCase runs c on cluster1024 over the named file system in one issue
// mode and returns its golden line: every call the file system saw (issuing
// rank, op, offset, length, the caller's clock before and after and the
// device completion, as float bits, in dispatch order), each rank's
// BytesSent/MsgsSent and final clock, the engine's event count and the file's
// bytes. The read-back is checked against the composed views on the way.
func runGoldenCase(t *testing.T, c goldenCase, fsKind string, behind, into bool) string {
	t.Helper()
	read := c.read
	if read == nil {
		read = c.write
	}
	var global []byte
	for rank := 0; rank < c.np; rank++ {
		data := pattern(rank, int(mpi.TotalLen(c.write(c.np, rank))))
		for _, run := range c.write(c.np, rank) {
			if need := int(run.Off + run.Len); need > len(global) {
				global = append(global, make([]byte, need-len(global))...)
			}
			copy(global[run.Off:], data[:run.Len])
			data = data[run.Len:]
		}
	}

	eng := sim.NewEngine()
	mach := machine.New(machine.Cluster1024())
	var inner pfs.FileSystem
	switch fsKind {
	case "pvfs":
		inner = pfs.NewPVFS(mach, pfs.DefaultPVFS())
	case "gpfs":
		inner = pfs.NewGPFS(mach, pfs.DefaultGPFS())
	}
	calls, ncalls := sha256.New(), 0
	fs := pfs.Tap(inner, func(call pfs.Call) {
		ncalls++
		fmt.Fprintf(calls, "%s %s %d %d %x %x %x\n", call.Client.Proc.Name(), call.Op, call.Req.Off, call.Req.Len(),
			math.Float64bits(call.Start), math.Float64bits(call.Now), math.Float64bits(call.Done))
	})
	type rankEnd struct {
		bytes, msgs int64
		clock       float64
		wrong       bool
	}
	ends := make([]rankEnd, c.np)
	mpi.NewWorld(eng, mach, c.np, func(r *mpi.Rank) {
		f, err := Open(r, fs, "golden.dat", ModeCreate, c.hints)
		if err != nil {
			panic(err)
		}
		wr := c.write(c.np, r.Rank())
		if p := f.IssueWriteAtAll(behind, wr, pattern(r.Rank(), int(mpi.TotalLen(wr)))); behind {
			p.Wait()
		}
		r.Barrier()
		rd := read(c.np, r.Rank())
		var buf []byte
		var p *Pending
		if into {
			p = f.IssueReadAtAllInto(behind, rd, &buf)
		} else {
			buf = make([]byte, mpi.TotalLen(rd))
			p = f.IssueReadAtAll(behind, rd, buf)
		}
		if behind {
			p.Wait()
		}
		f.Close()
		ends[r.Rank()] = rankEnd{r.BytesSent(), r.MsgsSent(), r.Now(), !bytes.Equal(buf, gatherRuns(global, rd))}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	sent, clocks := sha256.New(), sha256.New()
	for rank, e := range ends {
		if e.wrong {
			t.Errorf("%s/%s behind=%v: rank %d read back wrong bytes", c.name, fsKind, behind, rank)
		}
		fmt.Fprintf(sent, "%d %d\n", e.bytes, e.msgs)
		fmt.Fprintf(clocks, "%x\n", math.Float64bits(e.clock))
	}
	file := inner.Snapshot()["golden.dat"]
	if !bytes.Equal(file, global) {
		t.Errorf("%s/%s behind=%v: file differs from the composed views", c.name, fsKind, behind)
	}
	return fmt.Sprintf("calls=%d:%s sent=%s events=%d clocks=%s file=%x",
		ncalls, sum(calls), sum(sent), eng.Events(), sum(clocks), sha256.Sum256(file))
}

// TestTwoPhaseRequestGolden pins the two-phase aggregator's request stream to
// a file generated before the aggregator was rewritten (heap merge and piece
// sort → merge tree and placement by offset): every case, on pvfs and gpfs,
// blocking and behind, must issue the same device requests at the same
// virtual times, send the same messages, dispatch the same number of events
// and leave the same file — and so must the read into a buffer of its own
// (IssueReadAtAllInto), which differs only in where the replies land.
//
// Regenerate with: go test ./internal/mpiio -run TwoPhaseRequestGolden -update-golden
// — only in a PR that says which request moved and why.
func TestTwoPhaseRequestGolden(t *testing.T) {
	type row struct {
		name string
		run  func(into bool) string
	}
	var rows []row
	for _, c := range goldenCases() {
		for _, fsKind := range []string{"pvfs", "gpfs"} {
			for _, behind := range []bool{false, true} {
				rows = append(rows, row{
					name: c.name + "/" + fsKind + "/" + pick(behind, "blocking", "behind"),
					run:  func(into bool) string { return runGoldenCase(t, c, fsKind, behind, into) },
				})
			}
		}
	}
	golden := filepath.Join("testdata", "twophase.golden")
	if *updateGolden {
		var out strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&out, "%s %s\n", r.name, r.run(false))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(rows) {
		t.Fatalf("golden has %d lines, test has %d rows (regenerate with -update-golden)", len(want), len(rows))
	}
	for i, r := range rows {
		for _, into := range []bool{false, true} {
			if got := r.name + " " + r.run(into); got != want[i] {
				t.Errorf("drifted from %s (into=%v)\n got %s\nwant %s", golden, into, got, want[i])
			}
		}
	}
}
