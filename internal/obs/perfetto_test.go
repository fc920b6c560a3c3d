package obs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// handTracer builds a tracer as a finished run would have left it, without
// an engine: ranks[r] is rank r's span slice (a nil entry is an attached
// rank that recorded nothing), unattached lists rank slots left empty, and
// the servers are observed in the order given.
func handTracer(ranks [][]Span, unattached map[int]bool, names []string, serves [][]ServeEvent) *Tracer {
	tr := NewTracer()
	for r, spans := range ranks {
		if unattached[r] {
			tr.ranks = append(tr.ranks, nil)
			continue
		}
		tr.ranks = append(tr.ranks, &procTrace{t: tr, rank: r, spans: spans})
	}
	for i, name := range names {
		tr.serverIdx[name] = i
		tr.serverNames = append(tr.serverNames, name)
		tr.serves = append(tr.serves, serves[i])
	}
	return tr
}

// traceCase is one input of the encoder-against-reference comparison: the
// strings, times and byte count a template tracer is built around, and a
// shape word that spends its bits on structure. The table below and the
// fuzz target share it, so every table row is also a fuzz seed.
type traceCase struct {
	name, key, value, server string
	t0, t1, t2               float64
	nbytes                   int64
	shape                    uint16
}

const (
	shapeRanks      = 0x000f // attached rank slots, 0..15
	shapeSpans      = 0x0010 // the ranks carry spans
	shapeServers    = 0x0060 // servers, 0..3
	shapeGap        = 0x0080 // rank slot 1 is left unattached
	shapeSweep      = 0x0100 // pfs transfers stepped across [t0, t2]: the bandwidth windows
	shapeServerBit  = 5
	shapeEverything = 0x01ff &^ shapeGap
)

func (c traceCase) tracer() *Tracer {
	nranks := int(c.shape & shapeRanks)
	ranks := make([][]Span, nranks)
	for r := range ranks {
		if c.shape&shapeSpans == 0 {
			continue
		}
		ranks[r] = []Span{
			// Unsorted Attr keys, one of them twice, one possibly "bytes".
			{Rank: r, Layer: LayerApp, Name: c.name, Start: c.t0, End: c.t2, Bytes: c.nbytes, Parent: -1,
				Attrs: []Attr{{"z", c.value}, {c.key, c.value}, {"a", "first"}, {c.key, "last"}, {"a", c.name}}},
			{Rank: r, Layer: LayerPFS, Name: "write", Start: c.t0, End: c.t1, Bytes: c.nbytes, Depth: 1,
				Attrs: []Attr{{c.key, c.value}}},
			// An instantaneous transfer, and a span with neither bytes nor
			// attrs in a layer that may have no name.
			{Rank: r, Layer: LayerPFS, Name: "read", Start: c.t1, End: c.t1, Bytes: c.nbytes + 1, Depth: 1},
			{Rank: r, Layer: Layer(r % int(numLayers+1)), Name: c.value, Start: c.t1, End: c.t2, Depth: 1},
		}
		if c.shape&shapeSweep != 0 {
			for k := 0; k < 9; k++ {
				at := c.t0 + (c.t2-c.t0)*float64(k*(r+1))/61
				ranks[r] = append(ranks[r], Span{Rank: r, Layer: LayerPFS, Name: "write", Bytes: 1 << 20,
					Start: at, End: at + (c.t2-c.t0)/float64(13+r), Depth: 1})
			}
		}
	}
	// Observed in an order that is not alphabetical; the second request of
	// each stream arrives exactly when the first ends, and the third ends
	// when it arrives.
	names := []string{c.server, "b/" + c.server, "a"}[:int(c.shape&shapeServers)>>shapeServerBit]
	serves := make([][]ServeEvent, len(names))
	for i := range serves {
		serves[i] = []ServeEvent{
			{Arrive: c.t0, Start: c.t0, End: c.t1},
			{Arrive: c.t1, Start: c.t1, End: c.t2},
			{Arrive: c.t2, Start: c.t2, End: c.t2},
			{Arrive: c.t0, Start: c.t2, End: c.t2 + (c.t2 - c.t0)},
		}[:4-i]
	}
	return handTracer(ranks, map[int]bool{1: c.shape&shapeGap != 0}, names, serves)
}

// referenceExport runs the reference exporter. Its bandwidth pass indexes
// with int(NaN) when the transfers span too little time to divide into
// windows; that panic counts as the error it would have become a few lines
// later, when the NaN rate reached encoding/json.
func referenceExport(tr *Tracer, w io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("reference exporter panicked: %v", r)
		}
	}()
	return tr.writeTraceReference(w)
}

// matchReference holds WriteTrace to the reference exporter on tr: the same
// bytes, or an error from both. It returns the export (nil after an error).
func matchReference(t *testing.T, tr *Tracer) []byte {
	t.Helper()
	var want, got bytes.Buffer
	wantErr := referenceExport(tr, &want)
	gotErr := tr.WriteTrace(&got)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("errors disagree: reference %v, WriteTrace %v", wantErr, gotErr)
	}
	if wantErr != nil {
		if want.Len() != 0 {
			t.Fatalf("reference wrote %d bytes before failing", want.Len())
		}
		return nil
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		i := 0
		for i < got.Len() && i < want.Len() && got.Bytes()[i] == want.Bytes()[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("export differs from the reference at byte %d (%d vs %d bytes)\n got ...%s\nwant ...%s",
			i, got.Len(), want.Len(), got.Bytes()[lo:min(i+80, got.Len())], want.Bytes()[lo:min(i+80, want.Len())])
	}
	return got.Bytes()
}

// traceCases is the hand-picked table: each row names the part of the byte
// contract (DESIGN.md §6) it is there for.
var traceCases = []struct {
	what    string
	wantErr bool
	traceCase
}{
	{what: "empty tracer"},
	{what: "attached ranks with no spans, one slot unattached", traceCase: traceCase{shape: 3 | shapeGap}},
	{what: "Bytes == 0: no bytes arg", traceCase: traceCase{name: "open", key: "file", value: "ic.raw", server: "pvfs/iod0/disk", t1: 0.5, t2: 0.75, shape: shapeEverything}},
	{what: "Bytes > 0", traceCase: traceCase{name: "write_all", key: "file", value: "dump00.raw", server: "pvfs/iod0/disk", t0: 0.25, t1: 0.5, t2: 4, nbytes: 4096, shape: shapeEverything}},
	{what: "an Attr keyed bytes replaces the count", traceCase: traceCase{name: "n", key: "bytes", value: "many", server: "s", t1: 1, t2: 2, nbytes: 7, shape: shapeEverything}},
	{what: "an Attr keyed bytes on a span without a count", traceCase: traceCase{name: "n", key: "bytes", value: "none", server: "s", t1: 1, t2: 2, shape: shapeEverything}},
	{what: "key sorting between a and z, before a", traceCase: traceCase{name: "n", key: "Z", value: "v", server: "s", t1: 1, t2: 2, nbytes: 1, shape: shapeEverything}},
	{what: "quote and backslash", traceCase: traceCase{name: `say "hi"`, key: `k\e"y`, value: `C:\tmp\"x"`, server: `srv"0\`, t1: 1, t2: 2, nbytes: 1, shape: shapeEverything}},
	{what: "HTML-escaped characters", traceCase: traceCase{name: "<phase>", key: "a&b", value: "x<y>z&", server: "<s&>", t1: 1, t2: 2, nbytes: 1, shape: shapeEverything}},
	{what: "control bytes and DEL", traceCase: traceCase{name: "a\x00b\tc\nd\re\x1f\x7f", key: "\b\f", value: "\x01", server: "s\n", t1: 1, t2: 2, nbytes: 1, shape: shapeEverything}},
	{what: "non-ASCII", traceCase: traceCase{name: "phase:écriture", key: "ключ", value: "値🙂", server: "сервер", t1: 1, t2: 2, nbytes: 1, shape: shapeEverything}},
	{what: "U+2028 and U+2029", traceCase: traceCase{name: "a\u2028b", key: "k\u2029", value: "\u2028\u2029", server: "s\u2028", t1: 1, t2: 2, nbytes: 1, shape: shapeEverything}},
	{what: "invalid UTF-8", traceCase: traceCase{name: "a\xffb", key: "\xc3", value: "\xe2\x80", server: "s\xf0\x9f", t1: 1, t2: 2, nbytes: 1, shape: shapeEverything}},
	{what: "empty strings", traceCase: traceCase{t1: 1, t2: 2, nbytes: 1, shape: shapeEverything}},
	{what: "time zero", traceCase: traceCase{name: "n", key: "k", value: "v", server: "s", shape: shapeEverything}},
	{what: "negative zero", traceCase: traceCase{name: "n", key: "k", value: "v", server: "s", t0: math.Copysign(0, -1), t1: math.Copysign(0, -1), t2: 1, nbytes: 1, shape: shapeEverything}},
	{what: "1e-13 s: exponent form, e-07 shortened", traceCase: traceCase{name: "n", key: "k", value: "v", server: "s", t1: 1e-13, t2: 3e-13, nbytes: 1, shape: shapeEverything}},
	{what: "3e-7 s: just above the exponent cut-off", traceCase: traceCase{name: "n", key: "k", value: "v", server: "s", t0: 3e-7, t1: 1e-6, t2: 1.0000001e-6, nbytes: 1, shape: shapeEverything}},
	{what: "1e15 s: ts reaches 1e21", traceCase: traceCase{name: "n", key: "k", value: "v", server: "s", t0: 1e14, t1: 1e15, t2: 1.5e15, nbytes: 1, shape: shapeEverything}},
	{what: "subnormal times", traceCase: traceCase{name: "n", key: "k", value: "v", server: "s", t0: 5e-324, t1: 1e-300, t2: 1, nbytes: 1, shape: shapeEverything}},
	{what: "transfers too close together to divide into windows", wantErr: true, traceCase: traceCase{name: "n", key: "k", value: "v", server: "s", t1: 5e-324, t2: 1e-323, nbytes: 1, shape: shapeEverything}},
	{what: "negative times and a negative byte count", traceCase: traceCase{name: "n", key: "k", value: "v", server: "s", t0: -3, t1: -2.5, t2: -1, nbytes: -9, shape: shapeEverything}},
	{what: "spans that end before they start", traceCase: traceCase{name: "n", key: "k", value: "v", server: "s", t0: 3, t1: 2, t2: 1, nbytes: 5, shape: shapeEverything}},
	{what: "twelve ranks: two-digit rank labels", traceCase: traceCase{name: "n", key: "k", value: "v", server: "s", t1: 1, t2: 2, nbytes: 1, shape: 12 | shapeSpans | shapeSweep}},
	{what: "servers only", traceCase: traceCase{server: "zeta", t1: 1, t2: 2, shape: 3 << shapeServerBit}},
	{what: "NaN time", wantErr: true, traceCase: traceCase{name: "n", key: "k", value: "v", server: "s", t1: math.NaN(), t2: 2, nbytes: 1, shape: shapeEverything}},
	{what: "NaN start", wantErr: true, traceCase: traceCase{name: "n", key: "k", value: "v", server: "s", t0: math.NaN(), t1: 1, t2: 2, nbytes: 1, shape: shapeEverything}},
	{what: "+Inf time", wantErr: true, traceCase: traceCase{name: "n", key: "k", value: "v", server: "s", t1: 1, t2: math.Inf(1), nbytes: 1, shape: shapeEverything}},
	{what: "+Inf on a server only", wantErr: true, traceCase: traceCase{server: "s", t1: 1, t2: math.Inf(1), shape: 1 << shapeServerBit}},
	{what: "a time that overflows in microseconds", wantErr: true, traceCase: traceCase{name: "n", key: "k", value: "v", server: "s", t1: 1, t2: 1e305, nbytes: 1, shape: shapeEverything}},
}

func TestWriteTraceMatchesReference(t *testing.T) {
	for _, tc := range traceCases {
		t.Run(tc.what, func(t *testing.T) {
			out := matchReference(t, tc.tracer())
			if (out == nil) != tc.wantErr {
				t.Fatalf("export failed: %v, want failure: %v", out == nil, tc.wantErr)
			}
		})
	}
}

// TestWriteTraceBytes spells a small export out, so the byte contract is
// also pinned by something other than the exporter it was copied from.
func TestWriteTraceBytes(t *testing.T) {
	const head = `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"ranks"}},` +
		`{"name":"process_sort_index","ph":"M","ts":0,"pid":1,"tid":0,"args":{"sort_index":0}},` +
		`{"name":"process_name","ph":"M","ts":0,"pid":2,"tid":0,"args":{"name":"servers"}},` +
		`{"name":"process_sort_index","ph":"M","ts":0,"pid":2,"tid":0,"args":{"sort_index":1}}`
	const tail = `],"displayTimeUnit":"ms"}` + "\n"
	if got := string(matchReference(t, NewTracer())); got != head+tail {
		t.Errorf("empty tracer exports\n%s\nwant\n%s", got, head+tail)
	}

	tr := handTracer([][]Span{{
		{Layer: LayerApp, Name: "phase:write", Start: 0.5, End: 0.75, Parent: -1},
		{Layer: LayerPFS, Name: "write", Start: 0.5, End: 0.5 + 1.0/(1<<40), Bytes: 4096, Depth: 1,
			Attrs: []Attr{{"file", "a<b"}, {"deferred", "1"}, {"file", "d.raw"}}},
	}}, nil, []string{"nic1", "nic0"}, [][]ServeEvent{{{Arrive: 0.5, Start: 0.5, End: 1}}, {{Arrive: 0, Start: 0.25, End: 0.5}}})
	want := head +
		`,{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"rank 0"}}` +
		`,{"name":"thread_name","ph":"M","ts":0,"pid":2,"tid":0,"args":{"name":"nic0"}}` +
		`,{"name":"thread_name","ph":"M","ts":0,"pid":2,"tid":1,"args":{"name":"nic1"}}` +
		`,{"name":"phase:write","cat":"app","ph":"X","ts":500000,"dur":250000,"pid":1,"tid":0}` +
		`,{"name":"write","cat":"pfs","ph":"X","ts":500000,"dur":9.094947017729282e-7,"pid":1,"tid":0,"args":{"bytes":4096,"deferred":"1","file":"d.raw"}}` +
		`,{"name":"serve","cat":"server","ph":"X","ts":500000,"dur":500000,"pid":2,"tid":1}` +
		`,{"name":"queue nic1","ph":"C","ts":500000,"pid":2,"tid":0,"args":{"depth":1}}` +
		`,{"name":"queue nic1","ph":"C","ts":1000000,"pid":2,"tid":0,"args":{"depth":0}}` +
		`,{"name":"serve","cat":"server","ph":"X","ts":250000,"dur":250000,"pid":2,"tid":0}` +
		`,{"name":"queue nic0","ph":"C","ts":0,"pid":2,"tid":0,"args":{"depth":1}}` +
		`,{"name":"queue nic0","ph":"C","ts":500000,"pid":2,"tid":0,"args":{"depth":0}}`
	got := string(matchReference(t, tr))
	if len(got) < len(want) || got[:len(want)] != want {
		t.Errorf("export begins\n%s\nwant\n%s", got[:min(len(got), len(want))], want)
	}
	// The pfs MB/s counter closes the document: 200 windows and a final zero.
	if n := bytes.Count([]byte(got), []byte(`{"name":"pfs MB/s","ph":"C"`)); n != bwWindows+1 {
		t.Errorf("%d pfs MB/s events, want %d", n, bwWindows+1)
	}
	if end := `,"pid":2,"tid":0,"args":{"MB/s":0}}` + tail; len(got) < len(end) || got[len(got)-len(end):] != end {
		t.Errorf("export ends %q", got[max(len(got)-len(end), 0):])
	}
}

func FuzzWriteTraceMatchesReference(f *testing.F) {
	for _, tc := range traceCases {
		f.Add(tc.name, tc.key, tc.value, tc.server, tc.t0, tc.t1, tc.t2, tc.nbytes, tc.shape)
	}
	f.Fuzz(func(t *testing.T, name, key, value, server string, t0, t1, t2 float64, nbytes int64, shape uint16) {
		if len(name)+len(key)+len(value)+len(server) > 1<<10 {
			t.Skip("every string is rendered a few hundred times, twice over: keep the exports small")
		}
		matchReference(t, traceCase{name, key, value, server, t0, t1, t2, nbytes, shape}.tracer())
	})
}

// syntheticTracer is a finished run's worth of telemetry without the run:
// every span carries a byte count and two attrs, one in four is a pfs
// transfer, and the serve events queue behind one another.
func syntheticTracer(nranks, spansPerRank, nservers, eventsPerServer int) *Tracer {
	ranks := make([][]Span, nranks)
	for r := range ranks {
		spans := make([]Span, spansPerRank)
		for i := range spans {
			at := float64(i)*1e-3 + float64(r)*1e-5
			spans[i] = Span{Rank: r, Layer: LayerMPIIO, Name: "write_all", Start: at, End: at + 7.5e-4,
				Bytes: int64(4096 + i), Parent: i - 1, Depth: i % 5,
				Attrs: []Attr{{"file", "dump00.raw"}, {"deferred", "1"}}}
			if i%4 == 0 {
				spans[i].Layer, spans[i].Name = LayerPFS, "write"
			}
		}
		ranks[r] = spans
	}
	names := make([]string, nservers)
	serves := make([][]ServeEvent, nservers)
	for s := range serves {
		names[s] = "pvfs/iod" + strconv.Itoa(s) + "/disk"
		evs := make([]ServeEvent, eventsPerServer)
		for i := range evs {
			at := float64(i) * 1e-3
			evs[i] = ServeEvent{Arrive: at, Start: at + 2e-4, End: at + 1.2e-3}
		}
		serves[s] = evs
	}
	return handTracer(ranks, nil, names, serves)
}

// TestWriteTraceAllocsDoNotScale keeps the export free of an intermediate
// representation: ten times the spans and serve events must cost the same
// handful of allocations (the buffer, the scratch slices, one counter name
// per server).
func TestWriteTraceAllocsDoNotScale(t *testing.T) {
	export := func(tr *Tracer) func() {
		return func() {
			if err := tr.WriteTrace(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	}
	small := testing.AllocsPerRun(5, export(syntheticTracer(4, 200, 8, 150)))
	large := testing.AllocsPerRun(5, export(syntheticTracer(4, 2000, 8, 1500)))
	if small > 40 || large > small+4 {
		t.Errorf("WriteTrace allocates %.0f times on the small tracer and %.0f on one ten times its size", small, large)
	}
}

// failAfter accepts n bytes and then fails every write.
type failAfter struct {
	n      int
	err    error
	failed int
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.failed > 0 || len(p) > w.n {
		w.failed++
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteTraceReturnsWriteError: the writer's error comes back whether it
// strikes mid-document or on the final flush, and the encoder does not
// write again after it.
func TestWriteTraceReturnsWriteError(t *testing.T) {
	tr := syntheticTracer(4, 2000, 8, 1500)
	var whole bytes.Buffer
	if err := tr.WriteTrace(&whole); err != nil {
		t.Fatal(err)
	}
	if whole.Len() < 4*traceFlushBytes {
		t.Fatalf("export of %d bytes is too small to be written in pieces", whole.Len())
	}
	errDisk := errors.New("disk full")
	for _, n := range []int{0, traceFlushBytes + 1, whole.Len() - 1} {
		w := &failAfter{n: n, err: errDisk}
		if err := tr.WriteTrace(w); !errors.Is(err, errDisk) {
			t.Errorf("writer failing after %d bytes: WriteTrace returned %v", n, err)
		}
		if w.failed != 1 {
			t.Errorf("writer failing after %d bytes was written to %d times after it failed", n, w.failed-1)
		}
	}
	if err := tr.WriteTrace(&failAfter{n: whole.Len(), err: errDisk}); err != nil {
		t.Errorf("writer with exactly enough room: %v", err)
	}
}

// TestWriteFileLeavesNoPartialFile: a failed write removes what it wrote.
func TestWriteFileLeavesNoPartialFile(t *testing.T) {
	dir := t.TempDir()
	tr := syntheticTracer(2, 50, 2, 50)

	good := filepath.Join(dir, "good.trace.json")
	if err := WriteFile(good, tr.WriteTrace); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tr.WriteTrace(&want); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(good); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("WriteFile wrote %d bytes (%v), want %d", len(got), err, want.Len())
	}

	// An infinite time strikes after the encoder has written a prefix.
	big := syntheticTracer(4, 2000, 2, 50)
	big.ranks[3].spans[1999].End = math.Inf(1)
	bad := filepath.Join(dir, "bad.trace.json")
	if err := WriteFile(bad, big.WriteTrace); err == nil {
		t.Error("exporting an infinite time succeeded")
	}
	errReport := errors.New("report failed")
	if err := WriteFile(bad, func(w io.Writer) error {
		io.WriteString(w, "== run ==\n")
		return errReport
	}); !errors.Is(err, errReport) {
		t.Errorf("WriteFile returned %v, want the callback's error", err)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Errorf("failed WriteFile left %s behind (stat: %v)", bad, err)
	}
	if err := WriteFile(filepath.Join(good, "x"), tr.WriteTrace); err == nil {
		t.Error("WriteFile under a path that is a file succeeded")
	}
}

// BenchmarkWriteTrace exports a synthetic run about a quarter the size of
// the benchmark's traced_np16 workload: 64 k spans, 192 k serve events.
func BenchmarkWriteTrace(b *testing.B) {
	tr := syntheticTracer(16, 4000, 64, 3000)
	var n countWriter
	if err := tr.WriteTrace(&n); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

type countWriter int64

func (n *countWriter) Write(p []byte) (int, error) {
	*n += countWriter(len(p))
	return len(p), nil
}
