package pfs

import (
	"fmt"
	"sync"
)

// This file is what the three shared-namespace models have in common. XFS,
// GPFS and PVFS each embed a volume: one namespace, one Stats, the
// FileSystem metadata surface and one file handle, volFile, whose Do is the
// request shell every model shares. GPFS and PVFS stripe over data servers
// that can straggle and die, so they embed a stripedVolume: a volume plus
// those servers' disks, the per-file layouts, and the geometry, liveness,
// fault and placement surface over them. What is left to a model is its
// devices: the device pair below, and the methods over servers only it has
// (observers, scheduling policies, and DegradeDataServer, since a PVFS
// straggler slows its daemon CPU too).
//
// LocalFS keeps its own handle: its store is the calling node's partition,
// so a shared handle would have to ask which model it belongs to.

// device is what a model adds to its volume.
type device interface {
	// issue charges the model's devices for a request of n bytes at off in
	// f and returns its completion without advancing the caller to it. It
	// moves no bytes and touches no stats, so settle can abandon a request
	// whose completion lies past its deadline while the devices stay
	// charged (they did the work).
	issue(c Client, f *volFile, write bool, off, n int64) float64
	// meta charges a "create", "open" or "close" to the caller.
	meta(c Client, op string)
}

// metaTxn charges the caller t for a create or an open and half of it for a
// close: the metadata transaction of XFS and GPFS.
func metaTxn(c Client, op string, t float64) {
	if op == "close" {
		t /= 2
	}
	c.Proc.Advance(t)
}

// volume is a model's shared namespace, its accounting and its handles.
type volume struct {
	name    string
	dev     device
	blockBy bool // the storage is client-local and cannot miss a deadline: By is Block
	mu      sync.Mutex
	files   map[string]*ByteStore
	stats   statsCollector
}

// mount makes v the volume of the model dev, named name.
func (v *volume) mount(name string, dev device) {
	v.name, v.dev, v.blockBy, v.files = name, dev, true, make(map[string]*ByteStore)
}

// Name implements FileSystem.
func (v *volume) Name() string { return v.name }

// Stats implements FileSystem.
func (v *volume) Stats() Stats { return v.stats.snapshot() }

// Exists implements FileSystem.
func (v *volume) Exists(name string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	_, ok := v.files[name]
	return ok
}

// Create implements FileSystem.
func (v *volume) Create(c Client, name string) (File, error) { return File{v.create(c, name)}, nil }

// create charges the model's create and makes (or truncates) name.
func (v *volume) create(c Client, name string) *volFile {
	v.dev.meta(c, "create")
	v.stats.create()
	st := NewByteStore()
	v.mu.Lock()
	v.files[name] = st
	v.mu.Unlock()
	return &volFile{v: v, name: name, store: st}
}

// Open implements FileSystem. Opening a missing file costs nothing.
func (v *volume) Open(c Client, name string) (File, error) {
	st, err := v.open(name)
	if err != nil {
		return File{}, err
	}
	v.dev.meta(c, "open")
	v.stats.open()
	return File{&volFile{v: v, name: name, store: st}}, nil
}

func (v *volume) open(name string) (*ByteStore, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	st, ok := v.files[name]
	if !ok {
		return nil, fmt.Errorf("pfs: open %q: no such file", name)
	}
	return st, nil
}

// Snapshot implements FileSystem (out-of-band staging).
func (v *volume) Snapshot() map[string][]byte {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string][]byte, len(v.files))
	for name, st := range v.files {
		out[name] = st.Bytes()
	}
	return out
}

// Restore implements FileSystem (out-of-band staging). Each file adopts its
// bytes by reference, as a write does: a staged Snapshot is a set of fresh
// copies nobody else holds. A restored file starts as after a remount —
// with the volume's default layout and clean GPFS token and metanode state,
// all of which are keyed by the store Restore replaces.
func (v *volume) Restore(files map[string][]byte) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for name, data := range files {
		st := NewByteStore()
		st.WriteAt(data, 0)
		v.files[name] = st
	}
}

// volFile is the handle of a volume's file.
type volFile struct {
	v     *volume
	name  string
	store *ByteStore
}

func (f *volFile) Name() string        { return f.name }
func (f *volFile) Size(c Client) int64 { return f.store.Size() }
func (f *volFile) Close(c Client)      { f.v.dev.meta(c, "close") }

// Do implements Handle: the model charges its devices at issue — the
// synchronous client-side part on the caller's clock, the rest on its
// servers — and settle decides how the caller waits for the completion.
func (f *volFile) Do(c Client, r Req) (float64, error) {
	n := r.Len()
	if n == 0 {
		return idle(c, r)
	}
	if r.Mode == By && f.v.blockBy {
		r.Mode = Block
	}
	return settle(c, r, f.v.dev.issue(c, f, r.Write, r.Off, n), f.v.name, f.name, f.store, &f.v.stats)
}

// stripedVolume is a volume whose files stripe over data servers: one disk
// per server and the per-file layouts — the volume default unless a file
// was created with its own striping (PVFS's CreateStriped, the paper's
// future-work "flexible, application-specific disk file striping") or
// placed on one server.
type stripedVolume struct {
	volume
	disks   []*Disk
	layouts layouts
}

// mount makes v the volume of the model dev, named name, striping its files
// in unit-sized stripes over one data server per disk.
func (v *stripedVolume) mount(name string, dev device, unit int64, disks []*Disk) {
	v.volume.mount(name, dev)
	v.blockBy = false
	v.disks, v.layouts = disks, newLayouts(unit, len(disks))
}

// NumDataServers implements StripedVolume, ReplicaVolume and
// StripeFaultInjector: one per disk.
func (v *stripedVolume) NumDataServers() int { return len(v.disks) }

// StripeUnit implements StripedVolume: the volume's stripe unit (GPFS's
// block size).
func (v *stripedVolume) StripeUnit() int64 { return v.layouts.def.unit }

// DataServerFreeAt implements ReplicaVolume.
func (v *stripedVolume) DataServerFreeAt(i int) float64 { return v.disks[i].Server().FreeAt() }

// DataServerFailAt implements ReplicaVolume.
func (v *stripedVolume) DataServerFailAt(i int) float64 { return v.disks[i].Server().FailAt() }

// FailDataServerAt implements StripeFaultInjector: server i's disk stops
// completing requests at virtual time t.
func (v *stripedVolume) FailDataServerAt(i int, t float64) { v.disks[i].Server().SetFailAfter(t) }

// CreatePlaced implements PlacedCreator: a placed file is the degenerate
// case of per-file striping — one server, a stripe unit larger than any
// file. (GPFS does this with single-disk storage pools; its token and
// metanode protocols are unchanged.)
func (v *stripedVolume) CreatePlaced(c Client, name string, server int) (File, error) {
	f := v.create(c, name)
	v.layouts.pin(f.store, server)
	return File{f}, nil
}

// PlaceExisting implements PlacementRestorer.
func (v *stripedVolume) PlaceExisting(name string, server int) bool {
	st, err := v.open(name)
	if err == nil {
		v.layouts.pin(st, server)
	}
	return err == nil
}
