package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/pfs"
	"repro/internal/sim"
)

// fakeFS is a minimal pfs.FileSystem whose operations cost fixed virtual
// time, so counter and span timing is exactly predictable.
type fakeFS struct{}

type fakeFile struct{ name string }

const (
	fakeCreateCost = 0.010
	fakeOpenCost   = 0.005
	fakeReadCost   = 0.001
	fakeWriteCost  = 0.002
	fakeCloseCost  = 0.003
)

func (fakeFS) Name() string                { return "fake" }
func (fakeFS) Stats() pfs.Stats            { return pfs.Stats{} }
func (fakeFS) Exists(string) bool          { return true }
func (fakeFS) Snapshot() map[string][]byte { return nil }
func (fakeFS) Restore(map[string][]byte)   {}
func (fakeFS) Create(c pfs.Client, name string) (pfs.File, error) {
	c.Proc.Advance(fakeCreateCost)
	return pfs.File{Handle: &fakeFile{name: name}}, nil
}
func (fakeFS) Open(c pfs.Client, name string) (pfs.File, error) {
	c.Proc.Advance(fakeOpenCost)
	return pfs.File{Handle: &fakeFile{name: name}}, nil
}

func (f *fakeFile) Name() string          { return f.name }
func (f *fakeFile) Size(pfs.Client) int64 { return 0 }
func (f *fakeFile) Do(c pfs.Client, r pfs.Req) (float64, error) {
	if r.Write {
		c.Proc.Advance(fakeWriteCost)
	} else {
		c.Proc.Advance(fakeReadCost)
	}
	return c.Proc.Now(), nil
}
func (f *fakeFile) Close(c pfs.Client) { c.Proc.Advance(fakeCloseCost) }

// approx compares virtual durations allowing for float accumulation noise.
func approx(got, want float64) bool {
	d := got - want
	return d < 1e-9 && d > -1e-9
}

// runProc runs body as the single traced rank-0 process of a fresh engine.
func runProc(t *testing.T, tr *Tracer, body func(p *sim.Proc)) {
	t.Helper()
	eng := sim.NewEngine()
	eng.Spawn("rank0", func(p *sim.Proc) {
		if tr != nil {
			tr.Attach(p, 0)
		}
		body(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
}

func TestSpanNesting(t *testing.T) {
	tr := NewTracer()
	runProc(t, tr, func(p *sim.Proc) {
		parent := Begin(p, LayerApp, "phase:read")
		p.Advance(1)
		child := Begin(p, LayerMPIIO, "read_all").Bytes(100)
		p.Advance(2)
		grand := Begin(p, LayerPFS, "read").Bytes(100)
		p.Advance(3)
		grand.End()
		child.End()
		p.Advance(4)
		parent.End()
	})

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Spans are in begin order: parent, child, grandchild.
	if spans[0].Parent != -1 || spans[0].Depth != 0 {
		t.Errorf("parent span: Parent=%d Depth=%d", spans[0].Parent, spans[0].Depth)
	}
	if spans[1].Parent != 0 || spans[1].Depth != 1 {
		t.Errorf("child span: Parent=%d Depth=%d", spans[1].Parent, spans[1].Depth)
	}
	if spans[2].Parent != 1 || spans[2].Depth != 2 {
		t.Errorf("grandchild span: Parent=%d Depth=%d", spans[2].Parent, spans[2].Depth)
	}
	// Interval containment: every child lies inside its parent.
	for i, sp := range spans {
		if sp.Parent < 0 {
			continue
		}
		pa := spans[sp.Parent]
		if sp.Start < pa.Start || sp.End > pa.End {
			t.Errorf("span %d [%g,%g] escapes parent [%g,%g]", i, sp.Start, sp.End, pa.Start, pa.End)
		}
	}
	if got := spans[0].Dur(); got != 10 {
		t.Errorf("parent dur = %g, want 10", got)
	}

	// Exclusive time: parent 10-5=5, child 5-3=2, grandchild 3.
	stats := tr.LayerStats()
	excl := map[string]float64{}
	for _, st := range stats {
		excl[st.Name] = st.Exclusive
	}
	if excl["phase:read"] != 5 || excl["read_all"] != 2 || excl["read"] != 3 {
		t.Errorf("exclusive times = %v", excl)
	}
	tot := tr.LayerTotals()
	if tot[LayerApp] != 5 || tot[LayerMPIIO] != 2 || tot[LayerPFS] != 3 {
		t.Errorf("layer totals = %v", tot)
	}
}

func TestEndOutOfOrderPanics(t *testing.T) {
	tr := NewTracer()
	eng := sim.NewEngine()
	eng.Spawn("rank0", func(p *sim.Proc) {
		tr.Attach(p, 0)
		a := Begin(p, LayerApp, "a")
		Begin(p, LayerApp, "b") // still open
		a.End()                 // out of order
	})
	err := eng.Run()
	if err == nil || !strings.Contains(err.Error(), "span End out of order") {
		t.Fatalf("want span-order panic, got %v", err)
	}
}

func TestNilHandleNoops(t *testing.T) {
	// A proc with no tracer attached gets nil handles everywhere.
	runProc(t, nil, func(p *sim.Proc) {
		sp := Begin(p, LayerApp, "x")
		if sp != nil {
			t.Errorf("Begin on untraced proc = %v, want nil", sp)
		}
		sp.Bytes(10).Attr("k", "v").End() // must not panic
	})
}

func TestWrapFSCounters(t *testing.T) {
	tr := NewTracer()
	fs := WrapFS(fakeFS{}, tr)
	runProc(t, tr, func(p *sim.Proc) {
		c := pfs.Client{Proc: p, Node: 0}
		f, err := fs.Create(c, "data")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		f.WriteAt(c, make([]byte, 1024), 0)    // first write
		f.WriteAt(c, make([]byte, 1024), 1024) // consecutive
		f.WriteAt(c, make([]byte, 512), 4096)  // sequential, not consecutive
		f.WriteAt(c, make([]byte, 512), 0)     // backward: neither
		f.ReadAt(c, make([]byte, 100), 0)
		f.ReadAt(c, make([]byte, 100), 100) // consecutive
		f.Close(c)
	})

	cs := tr.Counters()
	if len(cs) != 1 {
		t.Fatalf("got %d counter records, want 1", len(cs))
	}
	fc := cs[0]
	if fc.Rank != 0 || fc.File != "data" {
		t.Errorf("record identity = rank %d file %q", fc.Rank, fc.File)
	}
	if fc.Creates != 1 || fc.Closes != 1 || fc.Writes != 4 || fc.Reads != 2 {
		t.Errorf("op counts: creates=%d closes=%d writes=%d reads=%d", fc.Creates, fc.Closes, fc.Writes, fc.Reads)
	}
	if fc.BytesWritten != 3072 || fc.BytesRead != 200 {
		t.Errorf("bytes: wr=%d rd=%d", fc.BytesWritten, fc.BytesRead)
	}
	if fc.ConsecWrites != 1 || fc.SeqWrites != 2 {
		t.Errorf("write pattern: consec=%d seq=%d", fc.ConsecWrites, fc.SeqWrites)
	}
	if fc.ConsecReads != 1 || fc.SeqReads != 1 {
		t.Errorf("read pattern: consec=%d seq=%d", fc.ConsecReads, fc.SeqReads)
	}
	if fc.SizeHist[SizeBucket(1024)] != 2 || fc.SizeHist[SizeBucket(512)] != 2 || fc.SizeHist[SizeBucket(100)] != 2 {
		t.Errorf("size histogram: %v", fc.SizeHist[:12])
	}
	if !approx(fc.MetaTime, fakeCreateCost+fakeCloseCost) {
		t.Errorf("MetaTime = %g", fc.MetaTime)
	}
	if !approx(fc.WriteTime, 4*fakeWriteCost) || !approx(fc.ReadTime, 2*fakeReadCost) {
		t.Errorf("times: write=%g read=%g", fc.WriteTime, fc.ReadTime)
	}

	// The wrapper also opened pfs-layer spans.
	var pfsSpans int
	for _, sp := range tr.Spans() {
		if sp.Layer == LayerPFS {
			pfsSpans++
		}
	}
	if pfsSpans != 8 { // create + 4 writes + 2 reads + close
		t.Errorf("pfs spans = %d, want 8", pfsSpans)
	}
}

func TestWrapFSUntracedProcUncounted(t *testing.T) {
	tr := NewTracer()
	fs := WrapFS(fakeFS{}, tr)
	runProc(t, nil, func(p *sim.Proc) {
		c := pfs.Client{Proc: p, Node: 0}
		f, _ := fs.Create(c, "data")
		f.WriteAt(c, make([]byte, 8), 0)
		f.Close(c)
	})
	if cs := tr.Counters(); len(cs) != 0 {
		t.Errorf("untraced proc produced %d counter records", len(cs))
	}
	if sp := tr.Spans(); len(sp) != 0 {
		t.Errorf("untraced proc produced %d spans", len(sp))
	}
}

func TestSizeBucket(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 1023: 9, 1024: 10, 1 << 20: 20}
	for n, want := range cases {
		if got := SizeBucket(n); got != want {
			t.Errorf("SizeBucket(%d) = %d, want %d", n, got, want)
		}
	}
	if got := SizeBucket(1 << 60); got != NumSizeBuckets-1 {
		t.Errorf("SizeBucket(2^60) = %d, want %d", got, NumSizeBuckets-1)
	}
}

func TestPercentile(t *testing.T) {
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %g", got)
	}
	if got := Percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single percentile = %g", got)
	}
	d := make([]float64, 100)
	for i := range d {
		d[i] = float64(i+1) / 100 // 0.01 .. 1.00, shuffled order below
	}
	// Reverse to check Percentile sorts.
	for i, j := 0, len(d)-1; i < j; i, j = i+1, j-1 {
		d[i], d[j] = d[j], d[i]
	}
	if got := Percentile(d, 0.50); got != 0.50 {
		t.Errorf("p50 = %g", got)
	}
	if got := Percentile(d, 0.95); got != 0.95 {
		t.Errorf("p95 = %g", got)
	}
	if got := Percentile(d, 0.99); got != 0.99 {
		t.Errorf("p99 = %g", got)
	}
}

func TestOpLatenciesAndReport(t *testing.T) {
	tr := NewTracer()
	fs := WrapFS(fakeFS{}, tr)
	runProc(t, tr, func(p *sim.Proc) {
		c := pfs.Client{Proc: p, Node: 0}
		f, _ := fs.Create(c, "f")
		f.WriteAt(c, make([]byte, 64), 0)
		f.WriteAt(c, nil, 64) // zero-byte request lands in histogram bucket 0
		f.ReadAt(c, make([]byte, 64), 0)
		f.Close(c)
	})
	lats := tr.OpLatencies()
	byOp := map[string]OpLatency{}
	for _, l := range lats {
		byOp[l.Op] = l
	}
	if byOp["read"].Count != 1 || !approx(byOp["read"].P50, fakeReadCost) {
		t.Errorf("read latency = %+v", byOp["read"])
	}
	if !approx(byOp["write"].P99, fakeWriteCost) {
		t.Errorf("write latency = %+v", byOp["write"])
	}

	var buf bytes.Buffer
	tr.WriteReport(&buf, 1.0)
	out := buf.String()
	for _, section := range []string{
		"== run ==", "== virtual time by layer", "== spans by layer/operation ==",
		"== pfs per-op latency ==", "== per-rank per-file counters",
	} {
		if !strings.Contains(out, section) {
			t.Errorf("report missing section %q:\n%s", section, out)
		}
	}
	if !strings.Contains(out, "0B-2B") {
		t.Errorf("histogram bucket 0 not labelled 0B-2B:\n%s", out)
	}
}

func TestObserveServe(t *testing.T) {
	tr := NewTracer()
	srv := sim.NewServer("disk0")
	srv.SetObserver(tr)
	srv.Serve(0, 2) // busy 0..2
	srv.Serve(1, 1) // queued until 2, busy 2..3
	names, events := tr.Servers()
	if len(names) != 1 || names[0] != "disk0" {
		t.Fatalf("server names = %v", names)
	}
	if len(events[0]) != 2 {
		t.Fatalf("events = %v", events[0])
	}
	if ev := events[0][1]; ev.Arrive != 1 || ev.Start != 2 || ev.End != 3 {
		t.Errorf("queued event = %+v", ev)
	}
	st := tr.ServerStats()[0]
	if st.Requests != 2 || st.Busy != 3 || st.WaitSum != 1 || st.Delayed != 1 {
		t.Errorf("server stats = %+v", st)
	}
}

func TestWriteTraceJSON(t *testing.T) {
	tr := NewTracer()
	fs := WrapFS(fakeFS{}, tr)
	srv := sim.NewServer("nic0")
	srv.SetObserver(tr)
	runProc(t, tr, func(p *sim.Proc) {
		c := pfs.Client{Proc: p, Node: 0}
		sp := Begin(p, LayerApp, "phase:write")
		f, _ := fs.Create(c, "f")
		f.WriteAt(c, make([]byte, 4096), 0)
		f.Close(c)
		sp.End()
		srv.Serve(p.Now(), 0.5)
		srv.Serve(p.Now(), 0.5)
	})

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}

	var haveRankThread, haveServerThread, haveQueueCounter, haveServe bool
	var slices int
	for _, ev := range tf.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name" && ev.Pid == 1:
			haveRankThread = true
		case ev.Ph == "M" && ev.Name == "thread_name" && ev.Pid == 2:
			haveServerThread = true
		case ev.Ph == "C" && strings.HasPrefix(ev.Name, "queue "):
			haveQueueCounter = true
			depth, ok := ev.Args["depth"].(float64)
			if !ok || depth < 0 {
				t.Errorf("queue counter args = %v", ev.Args)
			}
		case ev.Ph == "X" && ev.Name == "serve":
			haveServe = true
		case ev.Ph == "X":
			slices++
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Errorf("slice %q without non-negative dur", ev.Name)
			}
			if ev.Ts < 0 {
				t.Errorf("slice %q with negative ts", ev.Name)
			}
		}
	}
	if !haveRankThread || !haveServerThread {
		t.Errorf("missing track metadata: rank=%v server=%v", haveRankThread, haveServerThread)
	}
	if !haveQueueCounter {
		t.Errorf("missing queue-depth counter events")
	}
	if !haveServe {
		t.Errorf("missing server busy slices")
	}
	if slices != 4 { // phase:write + create + write + close spans
		t.Errorf("rank slices = %d, want 4", slices)
	}

	// Determinism: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := tr.WriteTrace(&buf2); err != nil {
		t.Fatalf("WriteTrace 2: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("repeated WriteTrace differs")
	}
}
