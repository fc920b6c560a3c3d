package iotrace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

func tracedXFS() (pfs.FileSystem, *Recorder) {
	mach := machine.New(machine.ByName("origin2000"))
	rec := NewRecorder()
	return Wrap(pfs.NewXFS(mach, pfs.DefaultXFS()), rec), rec
}

func TestWrapperRecordsAndDelegates(t *testing.T) {
	fs, rec := tracedXFS()
	eng := sim.NewEngine()
	eng.Spawn("c", func(p *sim.Proc) {
		c := pfs.Client{Proc: p, Node: 2}
		f, err := fs.Create(c, "data")
		if err != nil {
			panic(err)
		}
		f.WriteAt(c, []byte("hello world"), 100)
		buf := make([]byte, 5)
		f.ReadAt(c, buf, 100)
		if string(buf) != "hello" {
			panic("delegation broke data: " + string(buf))
		}
		f.Close(c)
		g, err := fs.Open(c, "data")
		if err != nil {
			panic(err)
		}
		if g.Size(c) != 111 {
			panic("size wrong through wrapper")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	evs := rec.Events()
	wantOps := []Op{OpCreate, OpWrite, OpRead, OpClose, OpOpen}
	if len(evs) != len(wantOps) {
		t.Fatalf("events = %d, want %d: %+v", len(evs), len(wantOps), evs)
	}
	for i, op := range wantOps {
		if evs[i].Op != op {
			t.Fatalf("event %d = %v, want %v", i, evs[i].Op, op)
		}
		if evs[i].Node != 2 {
			t.Fatalf("event %d node = %d", i, evs[i].Node)
		}
		if evs[i].End < evs[i].Start {
			t.Fatalf("event %d has negative duration", i)
		}
	}
	if evs[1].Offset != 100 || evs[1].Bytes != 11 {
		t.Fatalf("write event = %+v", evs[1])
	}
	if !fs.Exists("data") || fs.Name() != "xfs" {
		t.Fatal("passthroughs broken")
	}
	if fs.Stats().BytesWritten != 11 {
		t.Fatal("stats passthrough broken")
	}
}

func TestOpenMissingStillFails(t *testing.T) {
	fs, rec := tracedXFS()
	eng := sim.NewEngine()
	var err error
	eng.Spawn("c", func(p *sim.Proc) {
		_, err = fs.Open(pfs.Client{Proc: p, Node: 0}, "missing")
	})
	if e := eng.Run(); e != nil {
		t.Fatal(e)
	}
	if err == nil {
		t.Fatal("wrapper swallowed the error")
	}
	if len(rec.Events()) != 1 || rec.Events()[0].Op != OpOpen {
		t.Fatal("failed open not traced")
	}
}

func TestSummaryStatistics(t *testing.T) {
	rec := NewRecorder()
	// Three sequential writes then a far read on another file.
	rec.Record(Event{Op: OpWrite, File: "a", Offset: 0, Bytes: 1024, Start: 0, End: 0.5})
	rec.Record(Event{Op: OpWrite, File: "a", Offset: 1024, Bytes: 1024, Start: 0.5, End: 1.0})
	rec.Record(Event{Op: OpWrite, File: "a", Offset: 4096, Bytes: 2048, Start: 1.0, End: 1.5})
	rec.Record(Event{Op: OpRead, File: "b", Offset: 0, Bytes: 65536, Start: 2, End: 3})
	s := rec.Summarize()
	w := s.PerOp[OpWrite]
	if w.Count != 3 || w.Bytes != 4096 || w.Sequential != 1 {
		t.Fatalf("write stats = %+v", w)
	}
	if w.MinBytes != 1024 || w.MaxBytes != 2048 {
		t.Fatalf("write min/max = %d/%d", w.MinBytes, w.MaxBytes)
	}
	r := s.PerOp[OpRead]
	if r.Bandwidth() != 65536 {
		t.Fatalf("read bandwidth = %g", r.Bandwidth())
	}
	if s.Files != 2 {
		t.Fatalf("files = %d", s.Files)
	}
	if s.Span != [2]float64{0, 3} {
		t.Fatalf("span = %v", s.Span)
	}
	// 1024 -> bucket 10, 2048 -> bucket 11, 65536 -> bucket 16.
	if s.SizeHistogram[10] != 2 || s.SizeHistogram[11] != 1 || s.SizeHistogram[16] != 1 {
		t.Fatalf("histogram = %v", s.SizeHistogram)
	}
}

func TestFileOverlapSplitsExposedAndHidden(t *testing.T) {
	rec := NewRecorder()
	// Synchronous write: Completion normalized to End, nothing hidden.
	rec.Record(Event{Op: OpWrite, File: "sync", Bytes: 10, Start: 0, End: 0.5})
	// Deferred writes: the device finished after the caller returned. The
	// third call's outstanding window sits inside the second's, so the
	// union counts it once — hidden is (1.9-1.1) + (2.5-2.2), not the sum
	// of the three per-call gaps.
	rec.Record(Event{Op: OpWrite, File: "async", Bytes: 10, Start: 1, End: 1.1, Completion: 1.9})
	rec.Record(Event{Op: OpWrite, File: "async", Bytes: 10, Start: 2, End: 2.2, Completion: 2.5})
	rec.Record(Event{Op: OpWrite, File: "async", Bytes: 10, Start: 2.2, End: 2.3, Completion: 2.45})
	fo := rec.FileOverlap()
	if len(fo) != 2 || fo[0].File != "async" || fo[1].File != "sync" {
		t.Fatalf("overlap rows = %+v", fo)
	}
	if a := fo[0]; !near(a.Exposed, 0.4) || !near(a.Hidden, 1.1) {
		t.Fatalf("async file split = %+v", a)
	}
	if s := fo[1]; !near(s.Exposed, 0.5) || s.Hidden != 0 {
		t.Fatalf("sync file split = %+v", s)
	}
	var buf bytes.Buffer
	rec.Report(&buf)
	if !strings.Contains(buf.String(), "exposed vs hidden") {
		t.Fatalf("report missing overlap section:\n%s", buf.String())
	}
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }

// TestFileOverlapDeterministic: a file's hidden time is a float sum over its
// nodes, so the order of that sum is part of the result. Three nodes hiding
// 1e16, 1 and 1 s give 1e16 or 1.0000000000000002e16 depending on which is
// added first; two identical traces must agree to the bit.
func TestFileOverlapDeterministic(t *testing.T) {
	seen := map[float64]int{}
	for i := 0; i < 200; i++ {
		rec := NewRecorder()
		for node, hidden := range []float64{1e16, 1, 1} {
			rec.Record(Event{Op: OpWrite, File: "f", Node: node, Bytes: 1, Completion: hidden})
		}
		seen[rec.FileOverlap()[0].Hidden]++
	}
	if len(seen) != 1 {
		t.Fatalf("200 identical traces gave %d different hidden times: %v", len(seen), seen)
	}
}

// TestDeferredWriteTraced drives a Behind write through the wrapper (PVFS
// charges the devices at issue and returns a later completion) and checks
// the trace separates the issue interval from the device completion.
func TestDeferredWriteTraced(t *testing.T) {
	mach := machine.New(machine.ByName("chiba"))
	rec := NewRecorder()
	fs := Wrap(pfs.NewPVFS(mach, pfs.DefaultPVFS()), rec)
	eng := sim.NewEngine()
	eng.Spawn("c", func(p *sim.Proc) {
		c := pfs.Client{Proc: p, Node: 0}
		f, err := fs.Create(c, "dump")
		if err != nil {
			panic(err)
		}
		end := pfs.WriteAtAsync(f, c, make([]byte, 1<<20), 0)
		if end <= p.Now() {
			panic("deferred completion not in the future")
		}
		p.AdvanceTo(end)
		f.Close(c)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var wr *Event
	for i := range rec.Events() {
		if ev := rec.Events()[i]; ev.Op == OpWrite {
			wr = &ev
			break
		}
	}
	if wr == nil {
		t.Fatal("no write traced")
	}
	if wr.Hidden() <= 0 {
		t.Fatalf("deferred write recorded no hidden time: %+v", wr)
	}
	if wr.Exposed() >= wr.Hidden() {
		t.Fatalf("issue cost %.6fs should be far below device time %.6fs", wr.Exposed(), wr.Hidden())
	}
}

func TestReportRenders(t *testing.T) {
	rec := NewRecorder()
	rec.Record(Event{Op: OpWrite, File: "a", Offset: 0, Bytes: 4096, Start: 0, End: 0.1})
	rec.Record(Event{Op: OpRead, File: "a", Offset: 0, Bytes: 256, Start: 0.1, End: 0.2})
	rec.Record(Event{Op: OpCreate, File: "a", Start: 0, End: 0})
	var buf bytes.Buffer
	rec.Report(&buf)
	out := buf.String()
	for _, want := range []string{"read", "write", "create", "histogram", "MB/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestResetAndEventsCopy(t *testing.T) {
	rec := NewRecorder()
	rec.Record(Event{Op: OpRead, File: "x", Bytes: 1})
	evs := rec.Events()
	evs[0].Bytes = 999 // must not affect the recorder
	if rec.Events()[0].Bytes != 1 {
		t.Fatal("Events returned a live reference")
	}
	rec.Reset()
	if len(rec.Events()) != 0 {
		t.Fatal("Reset did not clear")
	}
}

// Property: total bytes in the summary equal the sum of event bytes, for
// any random trace.
func TestSummaryConservesBytesProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		rec := NewRecorder()
		var want int64
		for i, sz := range sizes {
			op := OpRead
			if i%2 == 0 {
				op = OpWrite
			}
			rec.Record(Event{Op: op, File: "f", Offset: int64(i) * 100, Bytes: int64(sz),
				Start: float64(i), End: float64(i) + 0.5})
			want += int64(sz)
		}
		s := rec.Summarize()
		var got int64
		for _, st := range s.PerOp {
			got += st.Bytes
		}
		var hist int64
		for _, n := range s.SizeHistogram {
			hist += n
		}
		return got == want && hist == int64(len(sizes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeLabels(t *testing.T) {
	// Bucket 0 also holds 0-byte requests, so its lower-bound label is 0B.
	cases := map[int]string{0: "0B", 1: "2B", 10: "1K", 20: "1M", 30: "1G"}
	for b, want := range cases {
		if got := obs.SizeLabel(b); got != want {
			t.Fatalf("SizeLabel(%d) = %q, want %q", b, got, want)
		}
	}
}

func TestDetectPatternSequential(t *testing.T) {
	rec := NewRecorder()
	for i := 0; i < 10; i++ {
		rec.Record(Event{Op: OpWrite, File: "seq", Offset: int64(i) * 100, Bytes: 100})
	}
	ps := rec.DetectPatterns()
	if len(ps) != 1 || ps[0].Kind != PatternSequential || ps[0].Fraction != 1 {
		t.Fatalf("patterns = %+v", ps)
	}
}

func TestDetectPatternStrided(t *testing.T) {
	rec := NewRecorder()
	// 64-byte requests every 4096 bytes: the (Block,Block,Block) signature.
	for i := 0; i < 20; i++ {
		rec.Record(Event{Op: OpRead, File: "bbb", Offset: int64(i) * 4096, Bytes: 64})
	}
	ps := rec.DetectPatterns()
	if len(ps) != 1 || ps[0].Kind != PatternStrided || ps[0].Stride != 4096 {
		t.Fatalf("patterns = %+v", ps)
	}
}

func TestDetectPatternRandom(t *testing.T) {
	rec := NewRecorder()
	offsets := []int64{0, 77777, 12, 500000, 999, 123456, 42, 31337, 777, 2}
	for _, off := range offsets {
		rec.Record(Event{Op: OpRead, File: "rand", Offset: off, Bytes: 8})
	}
	ps := rec.DetectPatterns()
	if len(ps) != 1 || ps[0].Kind != PatternRandom {
		t.Fatalf("patterns = %+v", ps)
	}
}

func TestDetectPatternsSeparatesFilesAndOps(t *testing.T) {
	rec := NewRecorder()
	for i := 0; i < 5; i++ {
		rec.Record(Event{Op: OpWrite, File: "a", Offset: int64(i) * 10, Bytes: 10})
		rec.Record(Event{Op: OpRead, File: "a", Offset: int64(i) * 1000, Bytes: 10})
		rec.Record(Event{Op: OpWrite, File: "b", Offset: int64(i) * 10, Bytes: 10})
	}
	ps := rec.DetectPatterns()
	if len(ps) != 3 {
		t.Fatalf("streams = %d, want 3: %+v", len(ps), ps)
	}
	// Sorted by file then op (read < write).
	if ps[0].File != "a" || ps[0].Op != OpRead || ps[0].Kind != PatternStrided {
		t.Fatalf("ps[0] = %+v", ps[0])
	}
	if ps[1].File != "a" || ps[1].Op != OpWrite || ps[1].Kind != PatternSequential {
		t.Fatalf("ps[1] = %+v", ps[1])
	}
	if ps[2].File != "b" || ps[2].Kind != PatternSequential {
		t.Fatalf("ps[2] = %+v", ps[2])
	}
}

func TestSingleRequestIsSequential(t *testing.T) {
	rec := NewRecorder()
	rec.Record(Event{Op: OpWrite, File: "one", Offset: 5, Bytes: 10})
	ps := rec.DetectPatterns()
	if len(ps) != 1 || ps[0].Kind != PatternSequential || ps[0].Requests != 1 {
		t.Fatalf("patterns = %+v", ps)
	}
}

func TestReportPatternsRenders(t *testing.T) {
	rec := NewRecorder()
	for i := 0; i < 4; i++ {
		rec.Record(Event{Op: OpRead, File: "f", Offset: int64(i) * 512, Bytes: 64})
	}
	var buf bytes.Buffer
	rec.ReportPatterns(&buf)
	out := buf.String()
	if !strings.Contains(out, "strided") || !strings.Contains(out, "stride=512") {
		t.Fatalf("report:\n%s", out)
	}
}

func TestPercentilesEmptyTrace(t *testing.T) {
	s := NewRecorder().Summarize()
	if len(s.PerOp) != 0 {
		t.Fatalf("empty trace produced per-op stats: %+v", s.PerOp)
	}
	if got := obs.Percentile(nil, 0.5); got != 0 {
		t.Fatalf("Percentile(nil) = %g, want 0", got)
	}
}

func TestPercentilesSingleEvent(t *testing.T) {
	rec := NewRecorder()
	rec.Record(Event{Op: OpWrite, File: "f", Bytes: 100, Start: 1.0, End: 1.5})
	st := rec.Summarize().PerOp[OpWrite]
	if st == nil {
		t.Fatal("no write stats")
	}
	for _, p := range []float64{st.P50, st.P95, st.P99} {
		if p != 0.5 {
			t.Fatalf("single-event percentiles = %g/%g/%g, want all 0.5", st.P50, st.P95, st.P99)
		}
	}
}

func TestPercentilesMultiFile(t *testing.T) {
	rec := NewRecorder()
	// 100 reads across two files with durations 0.01..1.00.
	for i := 1; i <= 100; i++ {
		file := "a"
		if i%2 == 0 {
			file = "b"
		}
		rec.Record(Event{Op: OpRead, File: file, Bytes: 10,
			Start: float64(i), End: float64(i) + float64(i)/100})
	}
	st := rec.Summarize().PerOp[OpRead]
	approx := func(got, want float64) bool { d := got - want; return d > -1e-9 && d < 1e-9 }
	if !approx(st.P50, 0.50) || !approx(st.P95, 0.95) || !approx(st.P99, 0.99) {
		t.Fatalf("percentiles = %g/%g/%g, want 0.50/0.95/0.99", st.P50, st.P95, st.P99)
	}
}

func TestReportZeroCountNoPanic(t *testing.T) {
	// A read op whose only events carry Count>0 is normal; construct the
	// degenerate summary path by reporting an empty recorder plus an
	// open-only trace (no read/write events at all).
	rec := NewRecorder()
	rec.Record(Event{Op: OpOpen, File: "f"})
	var sb strings.Builder
	rec.Report(&sb) // must not divide by zero
	if !strings.Contains(sb.String(), "open") {
		t.Fatalf("report missing open line:\n%s", sb.String())
	}
}

func TestCodecStatsAccumulateAndReport(t *testing.T) {
	rec := NewRecorder()
	rec.RecordCodecBytes("dump.raw", true, 1000, 250)
	rec.RecordCodecBytes("dump.raw", true, 1000, 250)
	rec.RecordCodecBytes("dump.raw", false, 500, 125)
	rec.RecordCodecBytes("ic.raw", true, 100, 100)
	stats := rec.CodecStats()
	if len(stats) != 2 {
		t.Fatalf("files = %d, want 2", len(stats))
	}
	if stats[0].File != "dump.raw" || stats[1].File != "ic.raw" {
		t.Fatalf("first-touch order broken: %+v", stats)
	}
	if stats[0].LogicalWritten != 2000 || stats[0].PhysicalWritten != 500 {
		t.Fatalf("write tally wrong: %+v", stats[0])
	}
	if stats[0].LogicalRead != 500 || stats[0].PhysicalRead != 125 {
		t.Fatalf("read tally wrong: %+v", stats[0])
	}
	var buf bytes.Buffer
	rec.Report(&buf)
	out := buf.String()
	if !strings.Contains(out, "compression (logical vs physical bytes per file):") {
		t.Fatalf("report missing compression section:\n%s", out)
	}
	if !strings.Contains(out, "4.00x") {
		t.Fatalf("report missing ratio:\n%s", out)
	}
	rec.Reset()
	if len(rec.CodecStats()) != 0 {
		t.Fatal("Reset kept codec stats")
	}
}

func TestRatioGuardsZeroPhysical(t *testing.T) {
	if Ratio(100, 0) != 0 {
		t.Fatal("zero physical bytes must yield ratio 0, not a division by zero")
	}
	if Ratio(0, 0) != 0 {
		t.Fatal("empty transfer must yield ratio 0")
	}
	if Ratio(400, 100) != 4 {
		t.Fatal("ratio wrong")
	}
}

func TestUncompressedRunsOmitCodecSection(t *testing.T) {
	fs, rec := tracedXFS()
	eng := sim.NewEngine()
	eng.Spawn("c", func(p *sim.Proc) {
		c := pfs.Client{Proc: p, Node: 0}
		f, _ := fs.Create(c, "plain")
		f.WriteAt(c, []byte("data"), 0)
		f.Close(c)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec.Report(&buf)
	if strings.Contains(buf.String(), "compression") {
		t.Fatal("codec section printed for an uncompressed run")
	}
}
