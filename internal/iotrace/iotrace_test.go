package iotrace

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// traced runs body as one rank with tr attached and returns tr's call log.
func traced(t *testing.T, tr *obs.Tracer, body func(p *sim.Proc)) []obs.CallRecord {
	t.Helper()
	eng := sim.NewEngine()
	eng.Spawn("c", func(p *sim.Proc) {
		tr.Attach(p, 0)
		body(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return tr.Calls()
}

// tracedXFS returns an XFS under the tracer's tap, and the tracer.
func tracedXFS() (pfs.FileSystem, *obs.Tracer) {
	mach := machine.New(machine.ByName("origin2000"))
	tr := obs.NewTracer()
	return obs.WrapFS(pfs.NewXFS(mach, pfs.DefaultXFS()), tr), tr
}

func TestWrapperRecordsAndDelegates(t *testing.T) {
	fs, tr := tracedXFS()
	evs := traced(t, tr, func(p *sim.Proc) {
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
	wantOps := []string{"create", "write", "read", "close", "open"}
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
	if evs[1].Offset != 100 || evs[1].Length != 11 {
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
	fs, tr := tracedXFS()
	var err error
	evs := traced(t, tr, func(p *sim.Proc) {
		_, err = fs.Open(pfs.Client{Proc: p, Node: 0}, "missing")
	})
	if err == nil {
		t.Fatal("wrapper swallowed the error")
	}
	if len(evs) != 1 || evs[0].Op != "open" || !evs[0].Failed {
		t.Fatalf("failed open not traced: %+v", evs)
	}
}

func TestSummaryStatistics(t *testing.T) {
	// Three sequential writes then a far read on another file.
	s := Summarize([]obs.CallRecord{
		{Op: "write", File: "a", Offset: 0, Length: 1024, Start: 0, End: 0.5},
		{Op: "write", File: "a", Offset: 1024, Length: 1024, Start: 0.5, End: 1.0},
		{Op: "write", File: "a", Offset: 4096, Length: 2048, Start: 1.0, End: 1.5},
		{Op: "read", File: "b", Offset: 0, Length: 65536, Start: 2, End: 3},
	})
	w := s.PerOp["write"]
	if w.Count != 3 || w.Bytes != 4096 || w.Sequential != 1 {
		t.Fatalf("write stats = %+v", w)
	}
	if w.MinBytes != 1024 || w.MaxBytes != 2048 {
		t.Fatalf("write min/max = %d/%d", w.MinBytes, w.MaxBytes)
	}
	r := s.PerOp["read"]
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
	calls := []obs.CallRecord{
		// Synchronous write: done when the caller returns, nothing hidden.
		{Op: "write", File: "sync", Length: 10, Start: 0, End: 0.5, Done: 0.5},
		// Deferred writes: the device finished after the caller returned. The
		// third call's outstanding window sits inside the second's, so the
		// union counts it once — hidden is (1.9-1.1) + (2.5-2.2), not the sum
		// of the three per-call gaps.
		{Op: "write", File: "async", Length: 10, Start: 1, End: 1.1, Done: 1.9},
		{Op: "write", File: "async", Length: 10, Start: 2, End: 2.2, Done: 2.5},
		{Op: "write", File: "async", Length: 10, Start: 2.2, End: 2.3, Done: 2.45},
	}
	fo := FileOverlap(calls)
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
	Report(&buf, calls, nil)
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
		var calls []obs.CallRecord
		for node, hidden := range []float64{1e16, 1, 1} {
			calls = append(calls, obs.CallRecord{Op: "write", File: "f", Node: node, Length: 1, Done: hidden})
		}
		seen[FileOverlap(calls)[0].Hidden]++
	}
	if len(seen) != 1 {
		t.Fatalf("200 identical traces gave %d different hidden times: %v", len(seen), seen)
	}
}

// TestDeferredWriteTraced drives a Behind write through the tracer's tap
// (PVFS charges the devices at issue and returns a later completion) and
// checks the call log separates the issue interval from the device
// completion.
func TestDeferredWriteTraced(t *testing.T) {
	mach := machine.New(machine.ByName("chiba"))
	tr := obs.NewTracer()
	fs := obs.WrapFS(pfs.NewPVFS(mach, pfs.DefaultPVFS()), tr)
	evs := traced(t, tr, func(p *sim.Proc) {
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
	i := slices.IndexFunc(evs, func(ev obs.CallRecord) bool { return ev.Op == "write" })
	if i < 0 {
		t.Fatal("no write traced")
	}
	wr := evs[i]
	if wr.Hidden() <= 0 {
		t.Fatalf("deferred write recorded no hidden time: %+v", wr)
	}
	if exposed := wr.End - wr.Start; exposed >= wr.Hidden() {
		t.Fatalf("issue cost %.6fs should be far below device time %.6fs", exposed, wr.Hidden())
	}
}

func TestReportRenders(t *testing.T) {
	var buf bytes.Buffer
	Report(&buf, []obs.CallRecord{
		{Op: "write", File: "a", Offset: 0, Length: 4096, Start: 0, End: 0.1},
		{Op: "read", File: "a", Offset: 0, Length: 256, Start: 0.1, End: 0.2},
		{Op: "create", File: "a", Start: 0, End: 0},
	}, nil)
	out := buf.String()
	for _, want := range []string{"read", "write", "create", "histogram", "MB/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestResetAndEventsCopy: the views read the tracer's own log (Calls lends
// it without a copy), so none of them may write it — not even the order of
// its records.
func TestResetAndEventsCopy(t *testing.T) {
	calls := []obs.CallRecord{
		{Op: "write", File: "b", Node: 1, Offset: 64, Length: 64, Start: 2, End: 2.1, Done: 3},
		{Op: "write", File: "b", Node: 1, Offset: 0, Length: 64, Start: 1, End: 1.1, Done: 2.5},
		{Op: "read", File: "a", Offset: 8, Length: 8, Start: 0, End: 1, Failed: true},
	}
	want := slices.Clone(calls)
	Summarize(calls)
	FileOverlap(calls)
	DetectPatterns(calls)
	Report(new(bytes.Buffer), calls, nil)
	ReportPatterns(new(bytes.Buffer), calls)
	if !slices.Equal(calls, want) {
		t.Fatalf("the views wrote the log:\n got %+v\nwant %+v", calls, want)
	}
}

// Property: total bytes in the summary equal the sum of event bytes, for
// any random trace.
func TestSummaryConservesBytesProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		var calls []obs.CallRecord
		var want int64
		for i, sz := range sizes {
			op := "read"
			if i%2 == 0 {
				op = "write"
			}
			calls = append(calls, obs.CallRecord{Op: op, File: "f", Offset: int64(i) * 100, Length: int64(sz),
				Start: float64(i), End: float64(i) + 0.5})
			want += int64(sz)
		}
		s := Summarize(calls)
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
	var calls []obs.CallRecord
	for i := 0; i < 10; i++ {
		calls = append(calls, obs.CallRecord{Op: "write", File: "seq", Offset: int64(i) * 100, Length: 100})
	}
	ps := DetectPatterns(calls)
	if len(ps) != 1 || ps[0].Kind != PatternSequential || ps[0].Fraction != 1 {
		t.Fatalf("patterns = %+v", ps)
	}
}

func TestDetectPatternStrided(t *testing.T) {
	var calls []obs.CallRecord
	// 64-byte requests every 4096 bytes: the (Block,Block,Block) signature.
	for i := 0; i < 20; i++ {
		calls = append(calls, obs.CallRecord{Op: "read", File: "bbb", Offset: int64(i) * 4096, Length: 64})
	}
	ps := DetectPatterns(calls)
	if len(ps) != 1 || ps[0].Kind != PatternStrided || ps[0].Stride != 4096 {
		t.Fatalf("patterns = %+v", ps)
	}
}

func TestDetectPatternRandom(t *testing.T) {
	var calls []obs.CallRecord
	offsets := []int64{0, 77777, 12, 500000, 999, 123456, 42, 31337, 777, 2}
	for _, off := range offsets {
		calls = append(calls, obs.CallRecord{Op: "read", File: "rand", Offset: off, Length: 8})
	}
	ps := DetectPatterns(calls)
	if len(ps) != 1 || ps[0].Kind != PatternRandom {
		t.Fatalf("patterns = %+v", ps)
	}
}

func TestDetectPatternsSeparatesFilesAndOps(t *testing.T) {
	var calls []obs.CallRecord
	for i := 0; i < 5; i++ {
		calls = append(calls,
			obs.CallRecord{Op: "write", File: "a", Offset: int64(i) * 10, Length: 10},
			obs.CallRecord{Op: "read", File: "a", Offset: int64(i) * 1000, Length: 10},
			obs.CallRecord{Op: "write", File: "b", Offset: int64(i) * 10, Length: 10})
	}
	ps := DetectPatterns(calls)
	if len(ps) != 3 {
		t.Fatalf("streams = %d, want 3: %+v", len(ps), ps)
	}
	// Sorted by file then op (read < write).
	if ps[0].File != "a" || ps[0].Op != "read" || ps[0].Kind != PatternStrided {
		t.Fatalf("ps[0] = %+v", ps[0])
	}
	if ps[1].File != "a" || ps[1].Op != "write" || ps[1].Kind != PatternSequential {
		t.Fatalf("ps[1] = %+v", ps[1])
	}
	if ps[2].File != "b" || ps[2].Kind != PatternSequential {
		t.Fatalf("ps[2] = %+v", ps[2])
	}
}

func TestSingleRequestIsSequential(t *testing.T) {
	ps := DetectPatterns([]obs.CallRecord{{Op: "write", File: "one", Offset: 5, Length: 10}})
	if len(ps) != 1 || ps[0].Kind != PatternSequential || ps[0].Requests != 1 {
		t.Fatalf("patterns = %+v", ps)
	}
}

func TestReportPatternsRenders(t *testing.T) {
	var calls []obs.CallRecord
	for i := 0; i < 4; i++ {
		calls = append(calls, obs.CallRecord{Op: "read", File: "f", Offset: int64(i) * 512, Length: 64})
	}
	var buf bytes.Buffer
	ReportPatterns(&buf, calls)
	out := buf.String()
	if !strings.Contains(out, "strided") || !strings.Contains(out, "stride=512") {
		t.Fatalf("report:\n%s", out)
	}
}

func TestPercentilesEmptyTrace(t *testing.T) {
	s := Summarize(nil)
	if len(s.PerOp) != 0 {
		t.Fatalf("empty trace produced per-op stats: %+v", s.PerOp)
	}
	if got := obs.Percentile(nil, 0.5); got != 0 {
		t.Fatalf("Percentile(nil) = %g, want 0", got)
	}
}

func TestPercentilesSingleEvent(t *testing.T) {
	st := Summarize([]obs.CallRecord{{Op: "write", File: "f", Length: 100, Start: 1.0, End: 1.5}}).PerOp["write"]
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
	var calls []obs.CallRecord
	// 100 reads across two files with durations 0.01..1.00.
	for i := 1; i <= 100; i++ {
		file := "a"
		if i%2 == 0 {
			file = "b"
		}
		calls = append(calls, obs.CallRecord{Op: "read", File: file, Length: 10,
			Start: float64(i), End: float64(i) + float64(i)/100})
	}
	st := Summarize(calls).PerOp["read"]
	approx := func(got, want float64) bool { d := got - want; return d > -1e-9 && d < 1e-9 }
	if !approx(st.P50, 0.50) || !approx(st.P95, 0.95) || !approx(st.P99, 0.99) {
		t.Fatalf("percentiles = %g/%g/%g, want 0.50/0.95/0.99", st.P50, st.P95, st.P99)
	}
}

func TestReportZeroCountNoPanic(t *testing.T) {
	// A read op whose only events carry Count>0 is normal; construct the
	// degenerate summary path by reporting an open-only trace (no
	// read/write calls at all).
	var sb strings.Builder
	Report(&sb, []obs.CallRecord{{Op: "open", File: "f"}}, nil) // must not divide by zero
	if !strings.Contains(sb.String(), "open") {
		t.Fatalf("report missing open line:\n%s", sb.String())
	}
}

// TestCodecStatsAccumulateAndReport: the tracer's tap receives the codec
// accounting (pfs.CodecReporter), tallies it per file and Report prints it.
func TestCodecStatsAccumulateAndReport(t *testing.T) {
	fs, tr := tracedXFS()
	cr, ok := pfs.As[pfs.CodecReporter](fs)
	if !ok {
		t.Fatal("the tracer's tap receives no codec accounting")
	}
	cr.RecordCodecBytes("dump.raw", true, 1000, 250)
	cr.RecordCodecBytes("dump.raw", true, 1000, 250)
	cr.RecordCodecBytes("dump.raw", false, 500, 125)
	cr.RecordCodecBytes("ic.raw", true, 100, 100)
	stats := tr.CodecFiles()
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
	Report(&buf, tr.Calls(), stats)
	out := buf.String()
	if !strings.Contains(out, "compression (logical vs physical bytes per file):") {
		t.Fatalf("report missing compression section:\n%s", out)
	}
	if !strings.Contains(out, "4.00x") {
		t.Fatalf("report missing ratio:\n%s", out)
	}
}

func TestRatioGuardsZeroPhysical(t *testing.T) {
	if obs.Ratio(100, 0) != 0 {
		t.Fatal("zero physical bytes must yield ratio 0, not a division by zero")
	}
	if obs.Ratio(0, 0) != 0 {
		t.Fatal("empty transfer must yield ratio 0")
	}
	if obs.Ratio(400, 100) != 4 {
		t.Fatal("ratio wrong")
	}
}

func TestUncompressedRunsOmitCodecSection(t *testing.T) {
	fs, tr := tracedXFS()
	calls := traced(t, tr, func(p *sim.Proc) {
		c := pfs.Client{Proc: p, Node: 0}
		f, _ := fs.Create(c, "plain")
		f.WriteAt(c, []byte("data"), 0)
		f.Close(c)
	})
	var buf bytes.Buffer
	Report(&buf, calls, tr.CodecFiles())
	if strings.Contains(buf.String(), "compression") {
		t.Fatal("codec section printed for an uncompressed run")
	}
}
