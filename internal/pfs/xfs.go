package pfs

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
)

// XFSConfig parameterizes the Origin2000 scratch volume model: an XFS file
// system over a striped multi-LUN RAID, reached through the ccNUMA memory
// system (no network hop). A single sequential writer is limited by the
// buffer-cache copy and one stream's worth of disk pipeline; many parallel
// writers approach the aggregate LUN bandwidth — which is exactly why the
// paper's MPI-IO port wins on this platform.
type XFSConfig struct {
	Luns     int        // number of striped LUNs
	Unit     int64      // stripe unit in bytes
	Disk     DiskParams // per-LUN characteristics
	PerCall  float64    // system-call + VFS overhead per read/write call
	MetaTime float64    // create/open metadata transaction
}

// DefaultXFS returns the calibration used for the paper reproduction.
func DefaultXFS() XFSConfig {
	return XFSConfig{
		Luns:     6,
		Unit:     512 * 1024,
		Disk:     DiskParams{Seek: 1.0e-3, PerReq: 0.1e-3, BW: 55e6},
		PerCall:  60e-6,
		MetaTime: 2e-3,
	}
}

// XFS is the shared-memory striped file system model.
type XFS struct {
	cfg   XFSConfig
	mach  *machine.Machine
	ns    *namespace
	luns  []*Disk
	stats statsCollector
}

// NewXFS builds an XFS volume on the given machine.
func NewXFS(mach *machine.Machine, cfg XFSConfig) *XFS {
	if cfg.Luns <= 0 {
		panic("pfs: XFS needs at least one LUN")
	}
	fs := &XFS{cfg: cfg, mach: mach, ns: newNamespace()}
	for i := 0; i < cfg.Luns; i++ {
		fs.luns = append(fs.luns, NewDisk(fmt.Sprintf("xfs/lun%d", i), cfg.Disk))
	}
	return fs
}

// Name implements FileSystem.
func (fs *XFS) Name() string { return "xfs" }

// Stats implements FileSystem.
func (fs *XFS) Stats() Stats { return fs.stats.snapshot() }

// Exists implements FileSystem.
func (fs *XFS) Exists(name string) bool { return fs.ns.exists(name) }

// Create implements FileSystem.
func (fs *XFS) Create(c Client, name string) (File, error) {
	c.Proc.Advance(fs.cfg.MetaTime)
	fs.stats.create()
	return File{&xfsFile{fs: fs, name: name, store: fs.ns.create(name)}}, nil
}

// Open implements FileSystem.
func (fs *XFS) Open(c Client, name string) (File, error) {
	st, err := fs.ns.open(name)
	if err != nil {
		return File{}, err
	}
	c.Proc.Advance(fs.cfg.MetaTime)
	fs.stats.open()
	return File{&xfsFile{fs: fs, name: name, store: st}}, nil
}

type xfsFile struct {
	fs    *XFS
	name  string
	store *ByteStore
}

func (f *xfsFile) Name() string        { return f.name }
func (f *xfsFile) Size(c Client) int64 { return f.store.Size() }
func (f *xfsFile) Close(c Client)      { c.Proc.Advance(f.fs.cfg.MetaTime / 2) }

// issue charges the syscall, buffer-cache copy and LUN queues for an access
// of n bytes at off (reads and writes cost the same) and returns the
// completion time without advancing the caller to it.
func (f *xfsFile) issue(c Client, off, n int64) float64 {
	fs := f.fs
	c.Proc.Advance(fs.cfg.PerCall + fs.mach.CopyTime(n)) // syscall + buffer-cache copy
	end := c.Proc.Now()
	for _, sp := range stripeSplit(off, n, fs.cfg.Unit, fs.cfg.Luns) {
		if e := fs.luns[sp.server].Access(c.Proc.Now(), sp.localOff, sp.n); e > end {
			end = e
		}
	}
	return end
}

// Do implements Handle: once the data is in the buffer cache (the copy stays
// on the caller's clock) the LUN work proceeds on its own, so a Behind
// request defers only the wait for the last stripe. The LUNs are
// client-local and cannot straggle or die, so a deadline is never missed:
// By is Block here.
func (f *xfsFile) Do(c Client, r Req) (float64, error) {
	n := r.Len()
	if n == 0 {
		return idle(c, r)
	}
	if r.Mode == By {
		r.Mode = Block
	}
	return settle(c, r, f.issue(c, r.Off, n), f.fs.Name(), f.name, f.store, &f.fs.stats)
}

// SetServeObserver implements ServeObservable over every LUN queue.
func (fs *XFS) SetServeObserver(o sim.ServeObserver) {
	for _, d := range fs.luns {
		d.Server().SetObserver(o)
	}
}

// SeekStats sums the seek-class statistics across all LUNs.
func (fs *XFS) SeekStats() (seq, near, far int64) {
	for _, d := range fs.luns {
		s, n, f := d.SeekStats()
		seq, near, far = seq+s, near+n, far+f
	}
	return
}

// Snapshot implements FileSystem (out-of-band staging).
func (fs *XFS) Snapshot() map[string][]byte { return fs.ns.snapshot() }

// Restore implements FileSystem (out-of-band staging).
func (fs *XFS) Restore(files map[string][]byte) { fs.ns.restore(files) }
