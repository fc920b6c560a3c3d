package faultfs

import (
	"bytes"
	"testing"

	"repro/internal/pfs"
	"repro/internal/sim"
)

// runFS executes body inside a one-process simulation over fs.
func runFS(t *testing.T, fs pfs.FileSystem, body func(c pfs.Client, fs pfs.FileSystem)) {
	t.Helper()
	eng := sim.NewEngine()
	eng.Spawn("c", func(p *sim.Proc) {
		body(pfs.Client{Proc: p, Node: 0}, fs)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStaleReadServesOverwrittenBytes(t *testing.T) {
	fs := Wrap(newXFS(), Config{Mode: StaleRead, EveryN: 1})
	v1 := bytes.Repeat([]byte{0x11}, 512)
	v2 := bytes.Repeat([]byte{0x22}, 512)
	runFS(t, fs, func(c pfs.Client, _ pfs.FileSystem) {
		f, _ := fs.Create(c, "victim")
		f.WriteAt(c, v1, 0)
		f.WriteAt(c, v2, 0) // overwrite: v1 becomes the stale image
		got := make([]byte, 512)
		f.ReadAt(c, got, 0)
		if !bytes.Equal(got, v1) {
			panic("stale read did not serve the previous version")
		}
	})
	if fs.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", fs.Injected())
	}
}

func TestStaleReadFreshBytesServedFaithfully(t *testing.T) {
	fs := Wrap(newXFS(), Config{Mode: StaleRead, EveryN: 1})
	v1 := bytes.Repeat([]byte{0x33}, 256)
	runFS(t, fs, func(c pfs.Client, _ pfs.FileSystem) {
		f, _ := fs.Create(c, "victim")
		f.WriteAt(c, v1, 0) // never overwritten: nothing stale to serve
		got := make([]byte, 256)
		f.ReadAt(c, got, 0)
		if !bytes.Equal(got, v1) {
			panic("read of never-overwritten bytes was altered")
		}
	})
	if fs.Injected() != 0 {
		t.Fatalf("injected = %d, want 0 (no stale bytes existed)", fs.Injected())
	}
}

// TestStaleReadAcrossCreateTruncation is the scenario scrubbing faces: a
// re-dump recreates the file, and a stale medium may still serve the
// previous generation's contents.
func TestStaleReadAcrossCreateTruncation(t *testing.T) {
	fs := Wrap(newXFS(), Config{Mode: StaleRead, EveryN: 1})
	gen1 := bytes.Repeat([]byte{0xAA}, 512)
	gen2 := bytes.Repeat([]byte{0xBB}, 512)
	runFS(t, fs, func(c pfs.Client, _ pfs.FileSystem) {
		f, _ := fs.Create(c, "dump")
		f.WriteAt(c, gen1, 0)
		f.Close(c)
		f, _ = fs.Create(c, "dump") // truncation: gen1 becomes stale
		f.WriteAt(c, gen2, 0)
		got := make([]byte, 512)
		f.ReadAt(c, got, 0)
		if !bytes.Equal(got, gen1) {
			panic("read after truncation did not serve the previous generation")
		}
	})
	if fs.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", fs.Injected())
	}
}

func TestStaleReadEveryNAndMaxInject(t *testing.T) {
	fs := Wrap(newXFS(), Config{Mode: StaleRead, EveryN: 2, MaxInject: 1})
	v1 := bytes.Repeat([]byte{0x01}, 128)
	v2 := bytes.Repeat([]byte{0x02}, 128)
	runFS(t, fs, func(c pfs.Client, _ pfs.FileSystem) {
		f, _ := fs.Create(c, "x")
		f.WriteAt(c, v1, 0)
		f.WriteAt(c, v2, 0)
		got := make([]byte, 128)
		f.ReadAt(c, got, 0) // read 1: not selected (every 2nd)
		if !bytes.Equal(got, v2) {
			panic("read 1 should be faithful")
		}
		f.ReadAt(c, got, 0) // read 2: stale
		if !bytes.Equal(got, v1) {
			panic("read 2 should be stale")
		}
		f.ReadAt(c, got, 0) // read 3: not selected
		f.ReadAt(c, got, 0) // read 4: selected but MaxInject reached
		if !bytes.Equal(got, v2) {
			panic("MaxInject did not stop injection")
		}
	})
	if fs.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", fs.Injected())
	}
}

func TestStaleReadFileSubstrFilter(t *testing.T) {
	fs := Wrap(newXFS(), Config{Mode: StaleRead, EveryN: 1, FileSubstr: "dump"})
	v1 := bytes.Repeat([]byte{0x0F}, 64)
	v2 := bytes.Repeat([]byte{0xF0}, 64)
	runFS(t, fs, func(c pfs.Client, _ pfs.FileSystem) {
		f, _ := fs.Create(c, "ic.raw") // not a target
		f.WriteAt(c, v1, 0)
		f.WriteAt(c, v2, 0)
		got := make([]byte, 64)
		f.ReadAt(c, got, 0)
		if !bytes.Equal(got, v2) {
			panic("non-matching file was served stale data")
		}
	})
	if fs.Injected() != 0 {
		t.Fatalf("injected = %d, want 0", fs.Injected())
	}
}

func TestStaleReadNeverAltersWrites(t *testing.T) {
	// The same run through a plain fs and a StaleRead wrapper must leave
	// identical stored bytes: only read buffers lie.
	plain := newXFS()
	wrapped := Wrap(newXFS(), Config{Mode: StaleRead, EveryN: 1})
	write := func(fs pfs.FileSystem) {
		runFS(t, fs, func(c pfs.Client, _ pfs.FileSystem) {
			f, _ := fs.Create(c, "x")
			f.WriteAt(c, bytes.Repeat([]byte{1}, 100), 0)
			f.WriteAt(c, bytes.Repeat([]byte{2}, 100), 50)
		})
	}
	write(plain)
	write(wrapped)
	a, b := plain.Snapshot(), wrapped.Snapshot()
	if !bytes.Equal(a["x"], b["x"]) {
		t.Fatal("StaleRead mode altered stored bytes")
	}
}

// TestStaleReadThroughLend: a lend read borrows the store's own bytes, so
// the overlay must go onto a private copy. The reader sees the stale image;
// a later read of the same range, with the fault exhausted, gets the current
// bytes back — the store, and the buffer the writer handed it, were never
// written.
func TestStaleReadThroughLend(t *testing.T) {
	fs := Wrap(newXFS(), Config{Mode: StaleRead, EveryN: 1, MaxInject: 1})
	v1 := bytes.Repeat([]byte{0x44}, 512)
	v2 := bytes.Repeat([]byte{0x55}, 512)
	runFS(t, fs, func(c pfs.Client, _ pfs.FileSystem) {
		f, _ := fs.Create(c, "victim")
		f.WriteAt(c, v1, 0)
		f.WriteAt(c, v2, 0) // v1 becomes the stale image; the store keeps v2 itself
		l := pfs.Lend{N: 512}
		f.LendAt(c, &l, 0)
		if got := bytes.Join(l.Pieces, nil); !bytes.Equal(got, v1) {
			panic("lend read did not see the stale overlay")
		}
		f.LendAt(c, &l, 0)
		if got := bytes.Join(l.Pieces, nil); !bytes.Equal(got, bytes.Repeat([]byte{0x55}, 512)) {
			panic("the overlay reached the store: a later lend read still sees it")
		}
		if len(l.Pieces) != 1 || &l.Pieces[0][0] != &v2[0] {
			panic("an unfaulted lend read did not borrow the stored buffer")
		}
	})
	if !bytes.Equal(v2, bytes.Repeat([]byte{0x55}, 512)) {
		t.Fatal("the overlay wrote through into the writer's buffer")
	}
	if fs.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", fs.Injected())
	}
}
