package pfs

import (
	"bytes"
	"math/rand"
	"testing"
)

// The ByteStore oracle: operation sequences run against the store and
// against a flat []byte model, compared after every operation. A sequence is
// a string of 4-byte records (kind, a, b, c) so that the generator below and
// FuzzByteStore speak one alphabet; what a record means depends on the writes
// the sequence has made so far (storeRun.past), which is how it aims at the
// cases a uniform (off, len) draw rarely hits: a write that abuts the end,
// shadows an earlier write exactly, covers several at once, cuts a head, a
// tail or the middle out of one.
const (
	opWrite     = iota // anywhere: off = a,b; len = c
	opAppend           // at Size
	opGap              // past Size, leaving a hole of c%64+1 bytes
	opExact            // the bytes of an earlier write, exactly
	opSpan             // from the start of one earlier write to the end of another
	opMiddle           // strictly inside an earlier write
	opHead             // starts before an earlier write, ends inside it
	opTail             // starts inside an earlier write, ends after it
	opZeroWrite        // zero-length, possibly past Size: a no-op
	opRead             // anywhere, across holes and joins
	opReadPast         // starts near Size, runs past it
	opSize
	opBytes
	opTruncate
	opLend // anywhere, across holes and joins, like opRead
	numStoreOps
)

// storeSpace bounds the offsets a sequence uses: small, so that writes
// collide often.
const storeSpace = 4096

type span struct{ off, n int64 }

type storeRun struct {
	t     testing.TB
	st    *ByteStore
	model []byte // [0, Size)
	past  []span // the sequence's writes since the last Truncate
	seq   byte   // stamps each write's payload
	lent  []lent // every piece LendAt handed out in this sequence
}

// lent is a piece LendAt returned and a private copy of what it held then.
type lent struct{ piece, was []byte }

// payload returns n fresh non-zero bytes no earlier write carried in the same
// order, so that a stale or misplaced byte never compares equal by accident.
func (r *storeRun) payload(n int64) []byte {
	r.seq += 37
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*7 + r.seq | 1
	}
	return p
}

func (r *storeRun) write(off, n int64) {
	if off < 0 {
		off = 0
	}
	// Retention: what the index must look like afterwards, from what it holds
	// now. An extent the write covers completely leaves; one it lands
	// strictly inside is split in two.
	before, shadowed, split := len(r.st.ext), 0, 0
	for _, e := range r.st.ext {
		switch {
		case off <= e.Off && e.End() <= off+n:
			shadowed++
		case e.Off < off && off+n < e.End():
			split = 1
		}
	}
	// The store adopts exactly the bytes it is given: hand it a slice with
	// spare capacity behind it; checkIndex requires the extent to own none.
	data := append(r.payload(n), 0xC5, 0xC5)[:n]
	r.st.WriteAt(data, off)
	if n == 0 {
		if len(r.st.ext) != before {
			r.t.Fatalf("zero-length write at %d changed the index", off)
		}
		return
	}
	if got, want := len(r.st.ext), before-shadowed+1+split; got != want {
		r.t.Fatalf("write of %d at %d shadowed %d of %d extents: index is %d long, want %d", n, off, shadowed, before, got, want)
	}
	if end := off + n; end > int64(len(r.model)) {
		r.model = append(r.model, make([]byte, end-int64(len(r.model)))...)
	}
	copy(r.model[off:], data)
	r.past = append(r.past, span{off, n})
}

func (r *storeRun) read(off, n int64) {
	want := make([]byte, n)
	if off < int64(len(r.model)) {
		copy(want, r.model[off:])
	}
	got := bytes.Repeat([]byte{0xEE}, int(n)+2) // dirty, with a guard byte each side
	r.st.ReadAt(got[1:n+1], off)
	if !bytes.Equal(got[1:n+1], want) {
		r.t.Fatalf("ReadAt(%d bytes at %d) differs from the flat model", n, off)
	}
	if got[0] != 0xEE || got[n+1] != 0xEE {
		r.t.Fatalf("ReadAt(%d bytes at %d) wrote outside its destination", n, off)
	}
}

// lend checks LendAt against ReadAt into a fresh buffer: the pieces lie back
// to back at their file offsets, from off to off+n, and hold the same bytes,
// holes as zeros; none is empty or owns capacity past its bytes; and a range
// inside one extent comes back as that extent's own memory, in one piece.
// LentRange cuts a sub-range the record's cut byte picks to ReadAt's bytes
// too. Every piece is remembered, to be held to its bytes after whatever the
// sequence does next (checkLent).
func (r *storeRun) lend(off, n int64, cut byte) {
	want := make([]byte, n)
	r.st.ReadAt(want, off)
	pieces := r.st.LendAt(nil, off, n)
	pos := off // the pieces so far cover [off, pos)
	for i, p := range pieces {
		switch {
		case p.Off != pos || p.End() > off+n:
			r.t.Fatalf("LendAt(%d bytes at %d): piece %d is [%d, %d), want it to start at %d and end by %d", n, off, i, p.Off, p.End(), pos, off+n)
		case len(p.Bytes) == 0 || cap(p.Bytes) != len(p.Bytes):
			r.t.Fatalf("LendAt(%d bytes at %d): piece %d is %d bytes with capacity %d", n, off, i, len(p.Bytes), cap(p.Bytes))
		case !bytes.Equal(p.Bytes, want[p.Off-off:p.End()-off]):
			r.t.Fatalf("LendAt(%d bytes at %d): piece %d at %d differs from ReadAt", n, off, i, p.Off)
		}
		pos = p.End()
		r.lent = append(r.lent, lent{p.Bytes, bytes.Clone(p.Bytes)})
	}
	if pos != off+n {
		r.t.Fatalf("LendAt(%d bytes at %d): the pieces end at %d", n, off, pos)
	}
	at := int64(cut) % (n + 1)
	m := int64(cut/3) % (n - at + 1)
	if got := LentRange(pieces, off+at, m); !bytes.Equal(got, want[at:at+m]) {
		r.t.Fatalf("LentRange(%d bytes at %d) of a lend of %d bytes at %d differs from ReadAt", m, off+at, n, off)
	}
	if n == 0 {
		return
	}
	for _, e := range r.st.ext {
		if e.Off <= off && off+n <= e.End() {
			if len(pieces) != 1 || &pieces[0].Bytes[0] != &e.Bytes[off-e.Off] {
				r.t.Fatalf("LendAt(%d bytes at %d) inside one extent: %d pieces, not the extent's own bytes", n, off, len(pieces))
			}
		}
	}
}

// checkLent holds every piece lent so far to the bytes it was lent with:
// writes re-slice the index and Truncate drops it, neither touches a byte.
func (r *storeRun) checkLent() {
	for i, l := range r.lent {
		if !bytes.Equal(l.piece, l.was) {
			r.t.Fatalf("lent piece %d (%d bytes) changed after it was lent", i, len(l.piece))
		}
	}
}

// pick returns the earlier write a record names (false if there is none).
func (r *storeRun) pick(a byte) (span, bool) {
	if len(r.past) == 0 {
		return span{}, false
	}
	return r.past[int(a)%len(r.past)], true
}

// apply performs one record and checks the store against the model.
func (r *storeRun) apply(kind, a, b, c byte) {
	off := (int64(a)<<8 | int64(b)) % storeSpace
	n := int64(c)
	size := int64(len(r.model))
	switch kind % numStoreOps {
	case opWrite:
		r.write(off, n*3)
	case opAppend:
		r.write(size, n+1)
	case opGap:
		r.write(size+n%64+1, int64(b)+1)
	case opExact:
		if p, ok := r.pick(a); ok {
			r.write(p.off, p.n)
		}
	case opSpan:
		p, ok := r.pick(a)
		q, _ := r.pick(b)
		if !ok {
			break
		}
		lo, hi := min(p.off, q.off), max(p.off+p.n, q.off+q.n)
		r.write(lo, hi-lo)
	case opMiddle:
		if p, ok := r.pick(a); ok && p.n >= 3 {
			start := 1 + int64(b)%(p.n-2)
			r.write(p.off+start, 1+n%(p.n-1-start))
		}
	case opHead:
		if p, ok := r.pick(a); ok {
			before := int64(b)%32 + 1
			r.write(p.off-before, before+1+n%p.n)
		}
	case opTail:
		if p, ok := r.pick(a); ok {
			start := int64(b) % p.n
			r.write(p.off+start, p.n-start+n%32+1)
		}
	case opZeroWrite:
		r.write(off*2, 0)
	case opRead:
		r.read(off, n*5)
	case opReadPast:
		r.read(max(0, size-int64(b)), int64(b)+n+1)
	case opSize:
		// checked below, after every operation
	case opBytes:
		if got := r.st.Bytes(); !bytes.Equal(got, r.model) {
			r.t.Fatalf("Bytes() differs from the flat model (%d vs %d bytes)", len(got), len(r.model))
		}
	case opTruncate:
		r.st.Truncate()
		r.model, r.past = r.model[:0], r.past[:0]
	case opLend:
		r.lend(off, n*5, b^c)
	}
	if got := r.st.Size(); got != int64(len(r.model)) {
		r.t.Fatalf("Size() = %d, model %d", got, len(r.model))
	}
	r.checkIndex()
	r.checkLent()
}

// checkIndex asserts the index invariant: extents ascend, do not overlap,
// are never empty and own no capacity past their bytes; the last one ends at
// Size (the highest end written since Truncate — apply holds Size to the
// model); and the index's spare slots hold no buffer a shadowing write
// vacated.
func (r *storeRun) checkIndex() {
	ext := r.st.ext
	var prevEnd int64
	for i, e := range ext {
		switch {
		case len(e.Bytes) == 0:
			r.t.Fatalf("extent %d at %d is empty", i, e.Off)
		case cap(e.Bytes) != len(e.Bytes):
			r.t.Fatalf("extent %d at %d keeps %d bytes of capacity it was not given", i, e.Off, cap(e.Bytes)-len(e.Bytes))
		case e.Off < prevEnd:
			r.t.Fatalf("extent %d at %d starts before the previous one ends (%d)", i, e.Off, prevEnd)
		}
		prevEnd = e.End()
	}
	if prevEnd != r.st.size {
		r.t.Fatalf("last extent ends at %d, Size is %d", prevEnd, r.st.size)
	}
	for i, e := range ext[len(ext):cap(ext)] {
		if e.Bytes != nil {
			r.t.Fatalf("vacated index slot %d still holds a %d-byte buffer", len(ext)+i, len(e.Bytes))
		}
	}
}

// finish compares the whole file, and a stretch past its end, once more.
func (r *storeRun) finish() {
	r.read(0, int64(len(r.model))+64)
	r.lend(0, int64(len(r.model))+64, byte(len(r.model)))
	if got := r.st.Bytes(); !bytes.Equal(got, r.model) {
		r.t.Fatal("Bytes() differs from the flat model at the end of the sequence")
	}
}

func runStoreOps(t testing.TB, ops []byte) {
	r := &storeRun{t: t, st: NewByteStore()}
	for ; len(ops) >= 4; ops = ops[4:] {
		r.apply(ops[0], ops[1], ops[2], ops[3])
	}
	r.finish()
}

// TestByteStoreMatchesFlatModel runs 6,000 generated sequences of up to 48
// operations. Truncate is drawn rarely so that most sequences build a file
// of many overlapping writes before they are cut down.
func TestByteStoreMatchesFlatModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1789))
	ops := make([]byte, 0, 4*48)
	for seq := 0; seq < 6000; seq++ {
		ops = ops[:0]
		for i, n := 0, 8+rng.Intn(41); i < n; i++ {
			kind := byte(rng.Intn(numStoreOps))
			if kind == opTruncate && rng.Intn(4) != 0 {
				kind = opWrite
			}
			ops = append(ops, kind, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		runStoreOps(t, ops)
	}
}

// FuzzByteStore feeds arbitrary record strings through the same checks.
func FuzzByteStore(f *testing.F) {
	f.Add([]byte{opAppend, 0, 0, 9, opAppend, 0, 0, 9, opMiddle, 1, 2, 3, opReadPast, 0, 20, 7})
	f.Add([]byte{opWrite, 0, 10, 40, opGap, 0, 5, 3, opSpan, 0, 1, 0, opExact, 0, 0, 0, opBytes, 0, 0, 0})
	f.Add([]byte{opWrite, 1, 0, 90, opHead, 0, 7, 30, opTail, 0, 200, 9, opZeroWrite, 9, 9, 0, opTruncate, 0, 0, 0, opRead, 0, 0, 50})
	f.Add([]byte{opWrite, 0, 0, 30, opLend, 0, 10, 4, opGap, 0, 5, 3, opLend, 0, 0, 40, opExact, 0, 0, 0, opMiddle, 0, 2, 5, opTruncate, 0, 0, 0, opLend, 0, 0, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*256 {
			ops = ops[:4*256]
		}
		runStoreOps(t, ops)
	})
}

// No way out of the store but LendAt returns stored memory: a reader that
// was handed the writer's buffer could change the file. Bytes and every
// model's Snapshot return copies; Restore adopts what it is given, like a
// write.
func TestBytesAndSnapshotAreCopies(t *testing.T) {
	payload := []byte("the writer's own buffer")
	want := bytes.Clone(payload)

	st := NewByteStore()
	st.WriteAt(payload, 10)
	clear(st.Bytes())
	if got := st.Bytes()[10:]; !bytes.Equal(got, want) || !bytes.Equal(payload, want) {
		t.Fatal("scribbling on what Bytes returned changed the stored bytes")
	}

	m := testMachine()
	for _, fs := range []FileSystem{NewXFS(m, DefaultXFS()), NewGPFS(m, DefaultGPFS()),
		NewPVFS(m, DefaultPVFS()), NewLocalFS(m, DefaultLocal())} {
		fs.Restore(map[string][]byte{"f": payload, "node1/f": payload})
		for _, data := range fs.Snapshot() {
			clear(data)
		}
		for name, data := range fs.Snapshot() {
			if !bytes.Equal(data, want) {
				t.Fatalf("%s: scribbling on a Snapshot changed %q", fs.Name(), name)
			}
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("%s: the restored buffer was written through", fs.Name())
		}
	}
}
