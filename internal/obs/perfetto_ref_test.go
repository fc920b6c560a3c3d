package obs

// The reference oracle for the trace export: the encoding/json exporter that
// Tracer.WriteTrace replaced, kept verbatim (identifiers that would collide
// with the encoder's carry a Reference suffix) so TestWriteTraceMatchesReference
// and FuzzWriteTraceMatchesReference can hold the streaming encoder to its
// bytes. It exists in no non-test file.

import (
	"encoding/json"
	"io"
	"sort"
)

// traceEvent is one entry of the Chrome trace-event format ("JSON Object
// Format"), the profile Perfetto and chrome://tracing both load.
// Timestamps and durations are microseconds; virtual seconds scale by 1e6.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

func durPtr(d float64) *float64 { return &d }

// writeTraceReference is WriteTrace as it was before the streaming encoder:
// build every event as a struct with a map and a pointer, then marshal the
// whole document through encoding/json.
func (t *Tracer) writeTraceReference(w io.Writer) error {
	var events []traceEvent

	// Track metadata: names for the two pids and every tid.
	events = append(events,
		traceEvent{Name: "process_name", Ph: "M", Pid: pidRanks,
			Args: map[string]any{"name": "ranks"}},
		traceEvent{Name: "process_sort_index", Ph: "M", Pid: pidRanks,
			Args: map[string]any{"sort_index": 0}},
		traceEvent{Name: "process_name", Ph: "M", Pid: pidServers,
			Args: map[string]any{"name": "servers"}},
		traceEvent{Name: "process_sort_index", Ph: "M", Pid: pidServers,
			Args: map[string]any{"sort_index": 1}},
	)
	nranks := t.NumRanks()
	for r := 0; r < nranks; r++ {
		events = append(events, traceEvent{Name: "thread_name", Ph: "M",
			Pid: pidRanks, Tid: r, Args: map[string]any{"name": rankLabelReference(r)}})
	}
	names, serves := t.Servers()
	sortedIdx := make([]int, len(names))
	for i := range sortedIdx {
		sortedIdx[i] = i
	}
	sort.Slice(sortedIdx, func(a, b int) bool { return names[sortedIdx[a]] < names[sortedIdx[b]] })
	tidOf := make([]int, len(names))
	for tid, i := range sortedIdx {
		tidOf[i] = tid
		events = append(events, traceEvent{Name: "thread_name", Ph: "M",
			Pid: pidServers, Tid: tid, Args: map[string]any{"name": names[i]}})
	}

	// Rank span slices.
	spans := t.Spans()
	for _, sp := range spans {
		args := map[string]any{}
		if sp.Bytes > 0 {
			args["bytes"] = sp.Bytes
		}
		for _, a := range sp.Attrs {
			args[a.Key] = a.Value
		}
		if len(args) == 0 {
			args = nil
		}
		events = append(events, traceEvent{
			Name: sp.Name,
			Cat:  sp.Layer.String(),
			Ph:   "X",
			Ts:   sp.Start * usPerSec,
			Dur:  durPtr(sp.Dur() * usPerSec),
			Pid:  pidRanks,
			Tid:  sp.Rank,
			Args: args,
		})
	}

	// Server busy slices and queue-depth counters.
	for i, evs := range serves {
		tid := tidOf[i]
		for _, ev := range evs {
			events = append(events, traceEvent{
				Name: "serve",
				Cat:  "server",
				Ph:   "X",
				Ts:   ev.Start * usPerSec,
				Dur:  durPtr((ev.End - ev.Start) * usPerSec),
				Pid:  pidServers,
				Tid:  tid,
			})
		}
		// Queue depth: +1 at arrival, -1 at completion; at equal times the
		// completion sorts first so back-to-back requests do not show a
		// phantom depth spike.
		type edge struct {
			ts    float64
			delta int
		}
		edges := make([]edge, 0, 2*len(evs))
		for _, ev := range evs {
			edges = append(edges, edge{ev.Arrive, +1}, edge{ev.End, -1})
		}
		sort.SliceStable(edges, func(a, b int) bool {
			if edges[a].ts != edges[b].ts {
				return edges[a].ts < edges[b].ts
			}
			return edges[a].delta < edges[b].delta
		})
		depth := 0
		counterName := "queue " + names[i]
		for _, e := range edges {
			depth += e.delta
			events = append(events, traceEvent{
				Name: counterName,
				Ph:   "C",
				Ts:   e.ts * usPerSec,
				Pid:  pidServers,
				Args: map[string]any{"depth": depth},
			})
		}
	}

	// Global pfs bandwidth counter, derived from pfs-layer read/write
	// spans bucketed into fixed windows across the traced interval.
	events = append(events, bandwidthCounterReference(spans)...)

	return json.NewEncoder(w).Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

func rankLabelReference(r int) string {
	// Avoid fmt for this tiny hot label; keeps the import list honest.
	const digits = "0123456789"
	if r < 10 {
		return "rank " + digits[r:r+1]
	}
	buf := []byte{}
	for v := r; v > 0; v /= 10 {
		buf = append([]byte{digits[v%10]}, buf...)
	}
	return "rank " + string(buf)
}

// bandwidthCounterReference turns pfs read/write spans into an aggregate MB/s
// counter sampled over bwWindows equal windows spanning the trace.
func bandwidthCounterReference(spans []Span) []traceEvent {
	const bwWindows = 200
	var lo, hi float64
	var found bool
	for _, sp := range spans {
		if sp.Layer != LayerPFS || (sp.Name != "read" && sp.Name != "write") || sp.Bytes == 0 {
			continue
		}
		if !found || sp.Start < lo {
			lo = sp.Start
		}
		if !found || sp.End > hi {
			hi = sp.End
		}
		found = true
	}
	if !found || hi <= lo {
		return nil
	}
	width := (hi - lo) / bwWindows
	buckets := make([]float64, bwWindows)
	for _, sp := range spans {
		if sp.Layer != LayerPFS || (sp.Name != "read" && sp.Name != "write") || sp.Bytes == 0 {
			continue
		}
		dur := sp.Dur()
		if dur <= 0 {
			// Instantaneous transfer: attribute everything to one bucket.
			b := int((sp.Start - lo) / width)
			if b >= bwWindows {
				b = bwWindows - 1
			}
			buckets[b] += float64(sp.Bytes)
			continue
		}
		rate := float64(sp.Bytes) / dur
		for b := 0; b < bwWindows; b++ {
			wLo := lo + float64(b)*width
			wHi := wLo + width
			overlap := min64(sp.End, wHi) - max64(sp.Start, wLo)
			if overlap > 0 {
				buckets[b] += rate * overlap
			}
		}
	}
	events := make([]traceEvent, 0, bwWindows+1)
	for b := 0; b < bwWindows; b++ {
		mbps := buckets[b] / width / 1e6
		events = append(events, traceEvent{
			Name: "pfs MB/s",
			Ph:   "C",
			Ts:   (lo + float64(b)*width) * usPerSec,
			Pid:  pidServers,
			Args: map[string]any{"MB/s": mbps},
		})
	}
	events = append(events, traceEvent{
		Name: "pfs MB/s",
		Ph:   "C",
		Ts:   hi * usPerSec,
		Pid:  pidServers,
		Args: map[string]any{"MB/s": 0.0},
	})
	return events
}

func min64(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
