package iotrace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// PatternKind classifies a file's observed access pattern — the
// application-level characterization the paper derives from its traces
// (regular partitions show up as sequential/strided request streams,
// irregular particle accesses as random ones).
type PatternKind int

// Detected pattern kinds.
const (
	// PatternSequential: each request starts where the previous ended.
	PatternSequential PatternKind = iota
	// PatternStrided: constant gap between consecutive request starts
	// that differs from the request length (the classic (Block,*)
	// partition signature).
	PatternStrided
	// PatternRandom: no dominant stride.
	PatternRandom
)

func (k PatternKind) String() string {
	switch k {
	case PatternSequential:
		return "sequential"
	case PatternStrided:
		return "strided"
	case PatternRandom:
		return "random"
	}
	return "unknown"
}

// FilePattern is the per-file, per-operation classification.
type FilePattern struct {
	File     string
	Op       string // "read" or "write"
	Kind     PatternKind
	Stride   int64   // dominant start-to-start distance (strided only)
	Fraction float64 // fraction of transitions matching the dominant behaviour
	Requests int64
}

// classifyThreshold is the fraction of transitions that must agree for a
// sequential/strided verdict.
const classifyThreshold = 0.6

// DetectPatterns classifies every (file, read/write) stream in calls.
// Results are sorted by file then op for deterministic reporting.
func DetectPatterns(calls []obs.CallRecord) []FilePattern {
	type key struct {
		file, op string
	}
	streams := make(map[key][]obs.CallRecord)
	for _, ev := range calls {
		if !isData(ev.Op) {
			continue
		}
		k := key{ev.File, ev.Op}
		streams[k] = append(streams[k], ev)
	}
	var out []FilePattern
	for k, evs := range streams {
		out = append(out, classify(k.file, k.op, evs))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Op < out[j].Op
	})
	return out
}

func classify(file, op string, evs []obs.CallRecord) FilePattern {
	fp := FilePattern{File: file, Op: op, Requests: int64(len(evs))}
	if len(evs) < 2 {
		fp.Kind = PatternSequential
		fp.Fraction = 1
		return fp
	}
	seq := 0
	strides := make(map[int64]int)
	for i := 1; i < len(evs); i++ {
		prev, cur := evs[i-1], evs[i]
		if cur.Offset == prev.Offset+prev.Moved() {
			seq++
			continue
		}
		strides[cur.Offset-prev.Offset]++
	}
	transitions := len(evs) - 1
	if float64(seq)/float64(transitions) >= classifyThreshold {
		fp.Kind = PatternSequential
		fp.Fraction = float64(seq) / float64(transitions)
		return fp
	}
	bestStride, bestCount := int64(0), 0
	for s, n := range strides {
		if n > bestCount || (n == bestCount && s < bestStride) {
			bestStride, bestCount = s, n
		}
	}
	if float64(bestCount)/float64(transitions) >= classifyThreshold {
		fp.Kind = PatternStrided
		fp.Stride = bestStride
		fp.Fraction = float64(bestCount) / float64(transitions)
		return fp
	}
	fp.Kind = PatternRandom
	fp.Fraction = float64(bestCount) / float64(transitions)
	return fp
}

// ReportPatterns writes the per-file classification table of calls.
func ReportPatterns(w io.Writer, calls []obs.CallRecord) {
	fmt.Fprintln(w, "access pattern classification:")
	for _, fp := range DetectPatterns(calls) {
		extra := ""
		if fp.Kind == PatternStrided {
			extra = fmt.Sprintf(" stride=%d", fp.Stride)
		}
		fmt.Fprintf(w, "  %-24s %-5s %-10s%s (%d reqs, %.0f%% agree)\n",
			fp.File, fp.Op, fp.Kind, extra, fp.Requests, 100*fp.Fraction)
	}
}
