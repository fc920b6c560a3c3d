// List-I/O: independent noncontiguous access through explicit
// (offset,length) vectors, after the listless "list I/O" interface of
// Thakur et al.'s "Optimizing Noncontiguous Accesses in MPI-IO"
// (PVFS's pvfs_read_list/pvfs_write_list). Where data sieving serves a
// scattered read by fetching the whole hole-ridden extent and paying its
// read-amplification tax, list-I/O hands the file system only the bytes
// the caller named: the vector is sorted into one file-order pass and
// exactly-adjacent entries are coalesced into single device requests —
// no holes are ever transferred.
//
// Device traffic goes through the operation's issuer like every other
// access kind: blocking, a RetryPolicy in the hints covers list-I/O and
// exhaustion surfaces the same typed *IOError; behind (IssueWriteList/
// IssueReadList with behind set), the same flattened requests are charged at issue and the
// usual Pending handle completes when the slowest one finishes.
package mpiio

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// listEnt is one validated entry of an (offset,length) vector: n bytes at
// file offset off, living at data[bpos:bpos+n] in the caller's buffer
// (buffer positions follow the original list order).
type listEnt struct {
	off, n, bpos int64
}

// listEntries validates an explicit (offset,length) vector against the
// caller's buffer and returns the entries sorted into file order (ties
// broken by list order, so duplicate offsets stay deterministic).
// Zero-length entries are dropped.
func listEntries(op string, offs, lens []int64, nbuf int) ([]listEnt, int64) {
	if len(offs) != len(lens) {
		panic(fmt.Sprintf("mpiio: %s %d offsets for %d lengths", op, len(offs), len(lens)))
	}
	ents := make([]listEnt, 0, len(offs))
	var total int64
	for i := range offs {
		switch {
		case lens[i] < 0:
			panic(fmt.Sprintf("mpiio: %s negative length %d at entry %d", op, lens[i], i))
		case lens[i] == 0:
			continue
		case offs[i] < 0:
			panic(fmt.Sprintf("mpiio: %s negative offset %d at entry %d", op, offs[i], i))
		}
		ents = append(ents, listEnt{off: offs[i], n: lens[i], bpos: total})
		total += lens[i]
	}
	if total != int64(nbuf) {
		panic(fmt.Sprintf("mpiio: %s buffer %d bytes for %d bytes of list entries", op, nbuf, total))
	}
	sort.SliceStable(ents, func(i, j int) bool { return ents[i].off < ents[j].off })
	return ents, total
}

// listGroup is one maximal run of exactly file-adjacent entries
// [i,j) with merged file extent [off,off+glen): a single device request.
// contig reports whether the group's bytes are also consecutive in the
// caller's buffer, in which case no gather/scatter copy is needed.
type listGroup struct {
	i, j      int
	off, glen int64
	contig    bool
}

// listGroups walks sorted entries and yields each coalesced group. When
// forbidOverlap is set (writes: two entries covering the same byte would
// make the result order-dependent) an overlapping pair panics.
func listGroups(op string, ents []listEnt, forbidOverlap bool, emit func(listGroup)) {
	for i := 0; i < len(ents); {
		g := listGroup{i: i, off: ents[i].off, contig: true}
		end := ents[i].off + ents[i].n
		j := i + 1
		for j < len(ents) && ents[j].off == end {
			if ents[j].bpos != ents[j-1].bpos+ents[j-1].n {
				g.contig = false
			}
			end += ents[j].n
			j++
		}
		if forbidOverlap && j < len(ents) && ents[j].off < end {
			panic(fmt.Sprintf("mpiio: %s entries overlap at offset %d", op, ents[j].off))
		}
		g.j, g.glen = j, end-g.off
		emit(g)
		i = j
	}
}

// writeListPass flattens the sorted entries into file order and issues each
// coalesced group as one request. A group whose bytes are already
// consecutive in data goes out zero-copy; otherwise it is gathered into a
// fresh buffer at memcpy cost, like the pack into a collective buffer.
func (f *File) writeListPass(is *issuer, op string, ents []listEnt, data []byte) {
	listGroups(op, ents, true, func(g listGroup) {
		if g.contig {
			b := ents[g.i].bpos
			is.write(data[b:b+g.glen], g.off)
			return
		}
		buf := make([]byte, g.glen)
		for k := g.i; k < g.j; k++ {
			e := ents[k]
			copy(buf[e.off-g.off:], data[e.bpos:e.bpos+e.n])
		}
		f.r.CopyCost(g.glen)
		is.write(buf, g.off)
	})
}

// readListPass mirrors writeListPass for reads: contiguous groups land
// directly in the caller's buffer; the rest read into a scratch extent and
// scatter out at memcpy cost (eagerly in both modes — a behind read fills
// its buffer at issue, only the clock settle is deferred). Reads never
// amplify — the extent is exactly the union of requested bytes.
func (f *File) readListPass(is *issuer, op string, ents []listEnt, buf []byte) {
	listGroups(op, ents, false, func(g listGroup) {
		if g.contig {
			b := ents[g.i].bpos
			is.read(buf[b:b+g.glen], g.off)
			return
		}
		scratch := make([]byte, g.glen)
		is.read(scratch, g.off)
		var copied int64
		for k := g.i; k < g.j; k++ {
			e := ents[k]
			copy(buf[e.bpos:e.bpos+e.n], scratch[e.off-g.off:e.off-g.off+e.n])
			copied += e.n
		}
		f.r.CopyCost(copied)
	})
}

// WriteList writes an explicit (offset,length) vector in one file-domain
// pass: data holds the entries' bytes back to back in list order, entries
// are sorted by file offset, exactly-adjacent entries coalesce into single
// requests, and nothing outside the named byte ranges is touched. Entries
// must not overlap. Honors the hints' RetryPolicy.
func (f *File) WriteList(offs, lens []int64, data []byte) { f.IssueWriteList(false, offs, lens, data) }

// IssueWriteList is WriteList in either issue mode.
func (f *File) IssueWriteList(behind bool, offs, lens []int64, data []byte) *Pending {
	const op = "WriteList"
	ents, total := listEntries(op, offs, lens, len(data))
	is := f.issuer(behind)
	sp := obs.Begin(f.client.Proc, obs.LayerMPIIO, pick(behind, "write_list", "iwrite_list")).Bytes(total)
	defer sp.End()
	f.writeListPass(&is, op, ents, data)
	return is.pending("iwrite_wait")
}

// IssueReadList reads an explicit (offset,length) vector in one file-domain
// pass into buf (entry bytes back to back in list order). Unlike the data
// sieving path this transfers no hole bytes, so scattered reads pay no read
// amplification. Blocking, it honors the hints' RetryPolicy; behind, buf is
// valid after Wait.
func (f *File) IssueReadList(behind bool, offs, lens []int64, buf []byte) *Pending {
	const op = "ReadList"
	ents, total := listEntries(op, offs, lens, len(buf))
	is := f.issuer(behind)
	sp := obs.Begin(f.client.Proc, obs.LayerMPIIO, pick(behind, "read_list", "iread_list")).Bytes(total)
	defer sp.End()
	f.readListPass(&is, op, ents, buf)
	return is.pending("iread_wait")
}
