package pfs

import (
	"fmt"
	"iter"

	"repro/internal/sim"
)

// DiskParams characterizes a disk (or RAID LUN).
type DiskParams struct {
	// Seek is the positioning cost paid when a request does not start
	// where the previous one ended (head movement + rotational latency).
	Seek float64
	// PerReq is the fixed controller/firmware cost of every request.
	PerReq float64
	// BW is the media transfer bandwidth in bytes/second.
	BW float64
}

// nearSeekDistance is the head-movement distance under which a
// repositioning is "short" (same cylinder group / served by the track and
// controller caches) and costs only nearSeekFraction of a full seek.
const (
	nearSeekDistance = 2 << 20
	nearSeekFraction = 0.15
)

// maxStreams is how many concurrent sequential streams the disk (its
// controller queue plus track caches) can follow at once. Interleaved
// requests that continue any tracked stream skip the seek cost, matching
// how tagged command queuing and per-file readahead behave.
const maxStreams = 16

// Disk is a single spindle (or LUN) modelled as a FIFO queue with
// multi-stream sequential-access detection: a request continuing any of
// the recently active streams pays no seek, a request landing within
// nearSeekDistance of one pays a fractional seek, and a far jump pays the
// full seek and opens a new stream (evicting the oldest).
type Disk struct {
	srv     *sim.Server
	params  DiskParams
	streams []int64 // end offsets of active streams, most recent last

	// seek-class statistics
	seqHits   int64
	nearSeeks int64
	farSeeks  int64
}

// SeekStats returns how many requests continued a stream, paid a near
// seek, and paid a full seek.
func (d *Disk) SeekStats() (seq, near, far int64) {
	return d.seqHits, d.nearSeeks, d.farSeeks
}

// NewDisk builds a disk with the given parameters.
func NewDisk(name string, p DiskParams) *Disk {
	if p.BW <= 0 {
		panic(fmt.Sprintf("pfs: disk %q needs positive bandwidth", name))
	}
	return &Disk{srv: sim.NewServer(name), params: p}
}

// seekClass finds the best-matching stream for a request at off: exact
// continuation (cost 0), near (fractional seek) or far (full seek). It
// returns the seek cost and the matched stream index (-1 for none).
func (d *Disk) seekClass(off int64) (float64, int) {
	best := -1
	bestDist := int64(-1)
	for i, end := range d.streams {
		dist := off - end
		if dist < 0 {
			dist = -dist
		}
		if best == -1 || dist < bestDist {
			best, bestDist = i, dist
		}
	}
	switch {
	case best >= 0 && bestDist == 0:
		return 0, best
	case best >= 0 && bestDist <= nearSeekDistance:
		return d.params.Seek * nearSeekFraction, best
	default:
		return d.params.Seek, -1
	}
}

// Access enqueues a request for n bytes at offset off arriving at virtual
// time `at` and returns its completion time. Whether the request is a read
// or a write does not change its cost at this level. Access requests carry
// the default service class 0.
func (d *Disk) Access(at float64, off, n int64) float64 {
	return d.AccessClass(at, off, n, 0)
}

// AccessClass is Access for a request of the given service class: under a
// scheduling policy installed on the disk's server the class selects the
// per-tenant queue; under the default FIFO it is ignored and the path is
// bit-identical to Access.
func (d *Disk) AccessClass(at float64, off, n int64, class int) float64 {
	if n < 0 || off < 0 {
		panic("pfs: invalid disk request")
	}
	seek, stream := d.seekClass(off)
	switch {
	case seek == 0:
		d.seqHits++
	case stream >= 0:
		d.nearSeeks++
	default:
		d.farSeeks++
	}
	svc := d.params.PerReq + seek + float64(n)/d.params.BW
	if stream >= 0 {
		d.streams = append(d.streams[:stream], d.streams[stream+1:]...)
	} else if len(d.streams) >= maxStreams {
		d.streams = d.streams[1:]
	}
	d.streams = append(d.streams, off+n)
	_, end := d.srv.ServeClass(class, at, svc)
	return end
}

// Server exposes the underlying queue (for utilization stats).
func (d *Disk) Server() *sim.Server { return d.srv }

// stripeSpan is a contiguous extent on one striping server, expressed in
// that server's local address space.
type stripeSpan struct {
	server   int
	localOff int64
	n        int64
}

// layout is one file's round-robin striping: a stripe unit, how many of the
// volume's servers the file spreads over, and the volume server holding its
// first stripe (so files on few servers still balance across the volume).
// Stripe s of the file lives on virtual server s % servers, which is volume
// server (s%servers + first) % volume.
type layout struct {
	unit    int64
	servers int
	first   int
	volume  int
}

// spans yields the part of the file extent [off, off+n) on each server
// holding any of it, in virtual-server order: the volume server and the one
// extent the part covers in that server's local address space. The stripes
// one server holds of a contiguous extent are consecutive in its local
// space, so its part runs from the first byte it holds to the last — one
// extent per server, computed, whatever the request's size.
func (l layout) spans(off, n int64) iter.Seq[stripeSpan] {
	return func(yield func(stripeSpan) bool) {
		if n <= 0 {
			return
		}
		u, k := l.unit, int64(l.servers)
		s0, s1 := off/u, (off+n-1)/u // the request's first and last stripe
		for v := range k {
			from := s0 + (v-s0%k+k)%k // v's first stripe at or after s0
			to := s1 - (s1%k-v+k)%k   // v's last stripe at or before s1
			if from > to {
				continue
			}
			lo, hi := from/k*u, to/k*u+u
			if from == s0 {
				lo += off % u
			}
			if to == s1 {
				hi -= u - 1 - (off+n-1)%u
			}
			if !yield(stripeSpan{server: (int(v) + l.first) % l.volume, localOff: lo, n: hi - lo}) {
				return
			}
		}
	}
}

// layouts is a striped volume's per-file layouts: a file spreads over
// every server from server 0 (def) unless it was created with, or pinned
// to, a layout of its own. Restored files get def back.
type layouts struct {
	def   layout
	files map[*ByteStore]layout
}

// volumeLayout stripes a file over all of a volume's servers from server 0.
func volumeLayout(unit int64, servers int) layout {
	if unit <= 0 || servers <= 0 {
		panic("pfs: invalid striping parameters")
	}
	return layout{unit: unit, servers: servers, volume: servers}
}

func newLayouts(unit int64, servers int) layouts {
	return layouts{def: volumeLayout(unit, servers), files: make(map[*ByteStore]layout)}
}

// of returns st's layout.
func (ls layouts) of(st *ByteStore) layout {
	if l, ok := ls.files[st]; ok {
		return l
	}
	return ls.def
}

// set gives st unit-sized stripes over servers (capped at the volume's
// count) starting at volume server first, taken modulo the volume's count.
func (ls layouts) set(st *ByteStore, unit int64, servers, first int) {
	vol := ls.def.volume
	ls.files[st] = layout{unit: unit, servers: min(servers, vol), first: (first%vol + vol) % vol, volume: vol}
}

// pin places st on one server: the one-server layout with a stripe unit
// larger than any file, so every byte sits at its own offset there.
func (ls layouts) pin(st *ByteStore, server int) { ls.set(st, 1<<40, 1, server) }
