package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// Chrome trace-event pids: one synthetic "process" groups the rank tracks
// and another groups the server tracks, so Perfetto shows them as two
// labelled lanes.
const (
	pidRanks   = 1
	pidServers = 2
)

// Timestamps and durations are microseconds; virtual seconds scale by 1e6.
const usPerSec = 1e6

// traceFlushBytes is how much encoded JSON WriteTrace gathers before it
// hands the buffer to the writer: large enough that a file sees few writes,
// small enough that the export's memory does not depend on the run's size.
const traceFlushBytes = 64 << 10

// traceEncoder appends events of the Chrome trace-event format ("JSON
// Object Format", the profile Perfetto and chrome://tracing both load) to
// one reused buffer, byte for byte as a json.Encoder rendered the event
// struct this replaces (perfetto_ref_test.go keeps that exporter as the
// oracle, DESIGN.md §6 spells the contract): fields in the order name, cat
// (omitted when empty), ph, ts, dur (only on "X" events), pid, tid, args
// (omitted when empty); args keys in byte order. Errors are sticky, as in
// bufio.Writer: after the first one nothing more is written and flush
// reports it.
type traceEncoder struct {
	w    io.Writer
	buf  []byte
	sep  byte       // what precedes the next event: '[' once, then ','
	args []traceArg // spanArgs scratch
	err  error
}

// traceArg is one args entry of a span event: an Attr, or the byte count.
type traceArg struct {
	key   string
	str   string
	num   int64
	isNum bool
}

// open starts an event object with every field but args.
func (e *traceEncoder) open(name, cat string, ph byte, ts, dur float64, pid, tid int) {
	b := append(e.buf, e.sep)
	e.sep = ','
	b = appendJSONString(append(b, `{"name":`...), name)
	if cat != "" {
		b = appendJSONString(append(b, `,"cat":`...), cat)
	}
	b = append(b, `,"ph":"`...)
	b = append(b, ph)
	b = e.appendFloat(append(b, `","ts":`...), ts)
	if ph == 'X' {
		b = e.appendFloat(append(b, `,"dur":`...), dur)
	}
	b = strconv.AppendInt(append(b, `,"pid":`...), int64(pid), 10)
	e.buf = strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
}

// arg opens a one-entry args object up to the value; key needs no escaping.
func (e *traceEncoder) arg(key string) []byte {
	return append(append(append(e.buf, `,"args":{"`...), key...), `":`...)
}

// closeString, closeInt and closeFloat end the event with a one-entry args
// object.
func (e *traceEncoder) closeString(key, v string) {
	e.buf = append(appendJSONString(e.arg(key), v), '}')
	e.close()
}

func (e *traceEncoder) closeInt(key string, v int) {
	e.buf = append(strconv.AppendInt(e.arg(key), int64(v), 10), '}')
	e.close()
}

func (e *traceEncoder) closeFloat(key string, v float64) {
	e.buf = append(e.appendFloat(e.arg(key), v), '}')
	e.close()
}

// spanArgs appends a span's args object: its Attrs, and "bytes" when the
// span moved any. encoding/json sorts a map's keys in byte order, and the
// map this replaces kept the last value stored under a key — so a repeated
// Attr key shows its last value and an Attr named "bytes" replaces the count.
func (e *traceEncoder) spanArgs(sp *Span) {
	args := e.args[:0]
	if sp.Bytes > 0 {
		args = append(args, traceArg{key: "bytes", num: sp.Bytes, isNum: true})
	}
	for _, a := range sp.Attrs {
		args = append(args, traceArg{key: a.Key, str: a.Value})
	}
	e.args = args
	if len(args) == 0 {
		return
	}
	slices.SortStableFunc(args, func(a, b traceArg) int { return strings.Compare(a.key, b.key) })
	b := append(e.buf, `,"args":`...)
	sep := byte('{')
	for i, a := range args {
		if i+1 < len(args) && args[i+1].key == a.key {
			continue
		}
		b = append(appendJSONString(append(b, sep), a.key), ':')
		if a.isNum {
			b = strconv.AppendInt(b, a.num, 10)
		} else {
			b = appendJSONString(b, a.str)
		}
		sep = ','
	}
	e.buf = append(b, '}')
}

// close ends the event and drains the buffer once it is full.
func (e *traceEncoder) close() {
	e.buf = append(e.buf, '}')
	if len(e.buf) >= traceFlushBytes {
		e.flush()
	}
}

func (e *traceEncoder) flush() error {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
	return e.err
}

// appendFloat appends f as encoding/json renders a float64: the shortest
// decimal that round-trips, in exponent form only below 1e-6 and from 1e21
// up (with e-07 shortened to e-7). NaN and ±Inf have no JSON form.
func (e *traceEncoder) appendFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("obs: WriteTrace: %w",
				&json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)})
		}
		return b
	}
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

// appendJSONString appends s quoted as json.Encoder quotes it (HTML escaping
// on). Printable ASCII without a character JSON or HTML escapes is copied;
// anything else goes through encoding/json's own escaper.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// WriteTrace writes the run as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. Tracks: one thread per
// rank (pid 1) carrying the span tree as complete slices, one thread per
// server (pid 2) carrying busy slices, plus per-server queue-depth
// counters and a global pfs bandwidth counter. Output is byte-for-byte
// deterministic for a given simulation.
//
// The events are encoded straight from the recorder's slices (see
// SpansByRank: call it once the engine has stopped) and written as they
// fill a buffer, so an error — w failing, or a NaN or infinite time, which
// JSON cannot hold — is returned after a prefix of the document has been
// written. A caller writing a file should remove it; WriteFile does.
func (t *Tracer) WriteTrace(w io.Writer) error {
	e := &traceEncoder{w: w, buf: make([]byte, 0, traceFlushBytes+(4<<10)), sep: '[', args: make([]traceArg, 0, 8)}
	e.buf = append(e.buf, `{"traceEvents":`...)

	// Track metadata: names for the two pids and every tid.
	meta := func(name string, pid, tid int) { e.open(name, "", 'M', 0, 0, pid, tid) }
	meta("process_name", pidRanks, 0)
	e.closeString("name", "ranks")
	meta("process_sort_index", pidRanks, 0)
	e.closeInt("sort_index", 0)
	meta("process_name", pidServers, 0)
	e.closeString("name", "servers")
	meta("process_sort_index", pidServers, 0)
	e.closeInt("sort_index", 1)
	byRank := t.SpansByRank()
	for r := range byRank {
		meta("thread_name", pidRanks, r)
		e.closeString("name", "rank "+strconv.Itoa(r))
	}
	// A server's tid is its position in name order; the streams stay in
	// first-observation order.
	names, serves := t.ServerStreams()
	byName := make([]int, len(names))
	for i := range byName {
		byName[i] = i
	}
	slices.SortFunc(byName, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	tidOf := make([]int, len(names))
	for tid, i := range byName {
		tidOf[i] = tid
		meta("thread_name", pidServers, tid)
		e.closeString("name", names[i])
	}

	// Rank span slices.
	for _, spans := range byRank {
		for i := range spans {
			sp := &spans[i]
			e.open(sp.Name, sp.Layer.String(), 'X', sp.Start*usPerSec, sp.Dur()*usPerSec, pidRanks, sp.Rank)
			e.spanArgs(sp)
			e.close()
		}
		if e.err != nil {
			return e.err
		}
	}

	// Server busy slices and queue-depth counters; one edge buffer, sized
	// for the longest stream, serves them all.
	longest := 0
	for _, evs := range serves {
		longest = max(longest, len(evs))
	}
	edges := make([]queueEdge, 0, 2*longest)
	for i, evs := range serves {
		for _, ev := range evs {
			e.open("serve", "server", 'X', ev.Start*usPerSec, (ev.End-ev.Start)*usPerSec, pidServers, tidOf[i])
			e.close()
		}
		// Queue depth: +1 at arrival, -1 at completion; at equal times the
		// completion sorts first so back-to-back requests do not show a
		// phantom depth spike.
		edges = edges[:0]
		for _, ev := range evs {
			edges = append(edges, queueEdge{ev.Arrive, +1}, queueEdge{ev.End, -1})
		}
		slices.SortStableFunc(edges, func(a, b queueEdge) int {
			if c := cmp.Compare(a.ts, b.ts); c != 0 {
				return c
			}
			return a.delta - b.delta
		})
		depth := 0
		counterName := "queue " + names[i]
		for _, ed := range edges {
			depth += ed.delta
			e.open(counterName, "", 'C', ed.ts*usPerSec, 0, pidServers, 0)
			e.closeInt("depth", depth)
		}
		if e.err != nil {
			return e.err
		}
	}

	// Global pfs bandwidth counter, derived from pfs-layer read/write
	// spans bucketed into fixed windows across the traced interval.
	if lo, hi, buckets, ok := bandwidthBuckets(byRank); ok {
		width := (hi - lo) / bwWindows
		for b, sum := range buckets {
			e.open("pfs MB/s", "", 'C', (lo+float64(b)*width)*usPerSec, 0, pidServers, 0)
			e.closeFloat("MB/s", sum/width/1e6)
		}
		e.open("pfs MB/s", "", 'C', hi*usPerSec, 0, pidServers, 0)
		e.closeFloat("MB/s", 0)
	}

	e.buf = append(e.buf, "],\"displayTimeUnit\":\"ms\"}\n"...)
	return e.flush()
}

// queueEdge is one step of a server's queue depth.
type queueEdge struct {
	ts    float64
	delta int
}

// bwWindows is how many equal windows the bandwidth counter samples.
const bwWindows = 200

// isTransfer reports whether sp is a pfs read or write that moved bytes.
func isTransfer(sp *Span) bool {
	return sp.Layer == LayerPFS && (sp.Name == "read" || sp.Name == "write") && sp.Bytes != 0
}

// bandwidthBuckets spreads the bytes of every pfs read/write span over
// bwWindows equal windows spanning those spans, [lo, hi]; ok is false when
// there is nothing to spread.
func bandwidthBuckets(byRank [][]Span) (lo, hi float64, buckets [bwWindows]float64, ok bool) {
	for _, spans := range byRank {
		for i := range spans {
			sp := &spans[i]
			if !isTransfer(sp) {
				continue
			}
			if !ok || sp.Start < lo {
				lo = sp.Start
			}
			if !ok || sp.End > hi {
				hi = sp.End
			}
			ok = true
		}
	}
	if !ok || hi <= lo {
		return lo, hi, buckets, false
	}
	width := (hi - lo) / bwWindows
	// window is the index of the window holding t, clamped to the table (a
	// NaN, from a span too short to divide, lands in the first).
	window := func(t float64) int {
		if x := (t - lo) / width; x >= bwWindows {
			return bwWindows - 1
		} else if x > 0 {
			return int(x)
		}
		return 0
	}
	for _, spans := range byRank {
		for i := range spans {
			sp := &spans[i]
			if !isTransfer(sp) {
				continue
			}
			dur := sp.Dur()
			if dur <= 0 {
				// Instantaneous transfer: attribute everything to one bucket.
				buckets[window(sp.Start)] += float64(sp.Bytes)
				continue
			}
			// Only the windows the span can overlap, one wider on each side
			// for rounding: the overlap test below still decides.
			rate := float64(sp.Bytes) / dur
			last := min(window(sp.End)+1, bwWindows-1)
			for b := max(window(sp.Start)-1, 0); b <= last; b++ {
				wLo := lo + float64(b)*width
				wHi := wLo + width
				if overlap := min(sp.End, wHi) - max(sp.Start, wLo); overlap > 0 {
					buckets[b] += rate * overlap
				}
			}
		}
	}
	return lo, hi, buckets, true
}
