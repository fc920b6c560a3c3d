package pfs

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
)

// GPFSConfig parameterizes the IBM SP-2 GPFS model. The three effects the
// paper blames for MPI-IO's loss on this platform are all present:
//
//   - a large, fixed stripe unit that does not match the application's
//     partitioning, so parallel writers share stripes;
//   - a distributed lock (token) manager: writing a stripe last written by
//     another client costs a token revocation, serialized through the
//     manager — the "mismatch between access patterns and disk file
//     striping" cost;
//   - a per-SMP-node VSD client queue: all ranks of a 4-way node funnel
//     their requests through one I/O stack — the "long I/O request queue"
//     cost.
type GPFSConfig struct {
	Servers      int        // VSD/NSD I/O server count
	Unit         int64      // stripe unit (large and fixed, per the paper)
	Disk         DiskParams // per-server storage
	VSDPerReq    float64    // per-request service in the compute node's VSD client
	LockTime     float64    // uncontended token acquisition per stripe
	ConflictTime float64    // token revocation when another client held the stripe
	MetanodeTime float64    // metanode update when a different client extends the file
	PerCall      float64    // syscall overhead
	MetaTime     float64    // create/open
}

// DefaultGPFS returns the calibration used for the paper reproduction.
func DefaultGPFS() GPFSConfig {
	return GPFSConfig{
		Servers:      8,
		Unit:         256 * 1024,
		Disk:         DiskParams{Seek: 6e-3, PerReq: 0.2e-3, BW: 30e6},
		VSDPerReq:    0.35e-3,
		LockTime:     0.15e-3,
		ConflictTime: 5e-3,
		MetanodeTime: 2e-3,
		PerCall:      50e-6,
		MetaTime:     3e-3,
	}
}

// GPFS is the SP-2 parallel file system model.
type GPFS struct {
	cfg     GPFSConfig
	mach    *machine.Machine
	ns      *namespace
	disks   []*Disk
	ioNICs  []*sim.Server
	vsd     map[int]*sim.Server // per compute node
	lockMgr *sim.Server
	owners  map[*ByteStore]map[int64]int // file -> stripe -> last writer
	meta    map[*ByteStore]*metanode     // file -> shared-file metanode state
	placed  map[*ByteStore]int           // file -> single data server (CreatePlaced)
	obs     sim.ServeObserver            // attached to lazily created servers too
	stats   statsCollector
}

// metanode tracks who last extended a file. In GPFS one node is the
// file's metanode and serializes size/metadata updates; a stream of
// extending writes from many clients into one shared file ping-pongs
// through it — the reason one-file-per-process output often beats a
// shared file on GPFS, and part of why the paper's single-shared-file
// MPI-IO port loses on the SP-2.
type metanode struct {
	srv          *sim.Server
	seenMax      int64
	lastExtender int
}

// NewGPFS builds a GPFS file system whose I/O servers hang off the
// machine's switch.
func NewGPFS(mach *machine.Machine, cfg GPFSConfig) *GPFS {
	if cfg.Servers <= 0 {
		panic("pfs: GPFS needs at least one I/O server")
	}
	fs := &GPFS{
		cfg:     cfg,
		mach:    mach,
		ns:      newNamespace(),
		vsd:     make(map[int]*sim.Server),
		lockMgr: sim.NewServer("gpfs/tokenmgr"),
		owners:  make(map[*ByteStore]map[int64]int),
		meta:    make(map[*ByteStore]*metanode),
		placed:  make(map[*ByteStore]int),
	}
	for i := 0; i < cfg.Servers; i++ {
		fs.disks = append(fs.disks, NewDisk(fmt.Sprintf("gpfs/disk%d", i), cfg.Disk))
		fs.ioNICs = append(fs.ioNICs, sim.NewServer(fmt.Sprintf("gpfs/ionic%d", i)))
	}
	return fs
}

func (fs *GPFS) nodeVSD(node int) *sim.Server {
	s, ok := fs.vsd[node]
	if !ok {
		s = sim.NewServer(fmt.Sprintf("gpfs/vsd%d", node))
		s.SetObserver(fs.obs)
		fs.vsd[node] = s
	}
	return s
}

// SetServeObserver implements ServeObservable: it covers the disks, I/O
// NICs and token manager immediately and remembers o for the VSD client
// queues and per-file metanodes that spring up later.
func (fs *GPFS) SetServeObserver(o sim.ServeObserver) {
	fs.obs = o
	for _, d := range fs.disks {
		d.Server().SetObserver(o)
	}
	for _, nic := range fs.ioNICs {
		nic.SetObserver(o)
	}
	fs.lockMgr.SetObserver(o)
	for _, s := range fs.vsd {
		s.SetObserver(o)
	}
	for _, mn := range fs.meta {
		mn.srv.SetObserver(o)
	}
}

// SetSchedPolicy installs a server-side scheduling discipline on the
// shared storage servers — the disks, where cross-tenant seconds are
// actually spent. The token manager, metanodes and per-node VSD queues
// stay FIFO: lock traffic is tiny serialized metadata, and a VSD queue is
// node-local, so disjointly placed tenants never share one. newPolicy is
// called once per server with its name and must return a fresh policy
// instance; nil restores the default FIFO everywhere.
func (fs *GPFS) SetSchedPolicy(newPolicy func(server string) sim.SchedPolicy) {
	for _, d := range fs.disks {
		srv := d.Server()
		if newPolicy == nil {
			srv.SetPolicy(nil)
		} else {
			srv.SetPolicy(newPolicy(srv.Name()))
		}
	}
}

// Name implements FileSystem.
func (fs *GPFS) Name() string { return "gpfs" }

// Stats implements FileSystem.
func (fs *GPFS) Stats() Stats { return fs.stats.snapshot() }

// Exists implements FileSystem.
func (fs *GPFS) Exists(name string) bool { return fs.ns.exists(name) }

// Create implements FileSystem.
func (fs *GPFS) Create(c Client, name string) (File, error) {
	c.Proc.Advance(fs.cfg.MetaTime)
	fs.stats.create()
	st := fs.ns.create(name)
	fs.owners[st] = make(map[int64]int)
	return File{&gpfsFile{fs: fs, name: name, store: st}}, nil
}

// Open implements FileSystem.
func (fs *GPFS) Open(c Client, name string) (File, error) {
	st, err := fs.ns.open(name)
	if err != nil {
		return File{}, err
	}
	c.Proc.Advance(fs.cfg.MetaTime)
	fs.stats.open()
	return File{&gpfsFile{fs: fs, name: name, store: st}}, nil
}

type gpfsFile struct {
	fs    *GPFS
	name  string
	store *ByteStore
}

// spans maps a byte range to per-server disk spans: the usual round-robin
// striping, or a single span on the pinned server for placed files.
func (f *gpfsFile) spans(off, n int64) []stripeSpan {
	if srv, ok := f.fs.placed[f.store]; ok {
		return []stripeSpan{{server: srv, localOff: off, n: n}}
	}
	return stripeSplit(off, n, f.fs.cfg.Unit, f.fs.cfg.Servers)
}

func (f *gpfsFile) Name() string        { return f.name }
func (f *gpfsFile) Size(c Client) int64 { return f.store.Size() }
func (f *gpfsFile) Close(c Client)      { c.Proc.Advance(f.fs.cfg.MetaTime / 2) }

// acquireTokens charges lock-manager time for every stripe the request
// touches. Writes record ownership so a later writer from a different
// client pays the revocation cost.
func (f *gpfsFile) acquireTokens(c Client, off, n int64, write bool) {
	fs := f.fs
	me := c.Proc.ID()
	owners := fs.owners[f.store]
	if owners == nil {
		owners = make(map[int64]int)
		fs.owners[f.store] = owners
	}
	var svc float64
	first := off / fs.cfg.Unit
	last := (off + n - 1) / fs.cfg.Unit
	for s := first; s <= last; s++ {
		owner, held := owners[s]
		if write && held && owner != me {
			svc += fs.cfg.ConflictTime
		} else {
			svc += fs.cfg.LockTime
		}
		if write {
			owners[s] = me
		}
	}
	fs.lockMgr.ServeAndWait(c.Proc, svc)
}

// metanodeUpdate charges the shared-file metanode when this write extends
// the file and the previous extender was a different client.
func (f *gpfsFile) metanodeUpdate(c Client, off, n int64) {
	fs := f.fs
	mn, ok := fs.meta[f.store]
	if !ok {
		mn = &metanode{srv: sim.NewServer("gpfs/metanode/" + f.name), lastExtender: -1}
		mn.srv.SetObserver(fs.obs)
		fs.meta[f.store] = mn
	}
	if off+n <= mn.seenMax {
		return
	}
	me := c.Proc.ID()
	if mn.lastExtender != me && mn.lastExtender != -1 {
		mn.srv.ServeAndWait(c.Proc, fs.cfg.MetanodeTime)
	}
	mn.lastExtender = me
	mn.seenMax = off + n
}

// Do implements Handle. The VSD queue, token acquisition and metanode
// update are synchronous lock traffic and stay on the caller's clock at
// issue in every mode (they really do block the client thread); settle
// decides how the caller waits for the data transfer and the disk work.
func (f *gpfsFile) Do(c Client, r Req) (float64, error) {
	n := r.Len()
	if n == 0 {
		return idle(c, r)
	}
	var end float64
	if r.Write {
		end = f.writeIssue(c, n, r.Off)
	} else {
		end = f.readIssue(c, n, r.Off)
	}
	return settle(c, r, end, f.fs.Name(), f.name, f.store, &f.fs.stats)
}

// writeIssue charges the synchronous lock traffic on the caller's clock and
// the data transfer plus disk work on the servers, returning the slowest
// server's acknowledged completion. It stores no bytes and touches no
// stats — settle abandons requests whose completion lies past their
// deadline while the devices stay charged.
func (f *gpfsFile) writeIssue(c Client, n, off int64) float64 {
	fs := f.fs
	c.Proc.Advance(fs.cfg.PerCall)
	fs.nodeVSD(c.Node).ServeAndWait(c.Proc, fs.cfg.VSDPerReq)
	f.acquireTokens(c, off, n, true)
	f.metanodeUpdate(c, off, n)
	end := c.Proc.Now()
	class := c.Proc.Class()
	for _, sp := range f.spans(off, n) {
		_, arrival := fs.mach.TransferVia(fs.mach.NIC(c.Node), fs.ioNICs[sp.server], sp.n, c.Proc.Now())
		e := fs.disks[sp.server].AccessClass(arrival, sp.localOff, sp.n, class)
		e += fs.mach.Config().WireLatency // completion acknowledgement
		if e > end {
			end = e
		}
	}
	return end
}

// readIssue is writeIssue's read counterpart: lock traffic synchronously,
// per-stripe request/data transfers and disk accesses charged, returning
// the last data arrival.
func (f *gpfsFile) readIssue(c Client, n, off int64) float64 {
	fs := f.fs
	c.Proc.Advance(fs.cfg.PerCall)
	fs.nodeVSD(c.Node).ServeAndWait(c.Proc, fs.cfg.VSDPerReq)
	f.acquireTokens(c, off, n, false)
	end := c.Proc.Now()
	const reqMsg = 128
	class := c.Proc.Class()
	for _, sp := range f.spans(off, n) {
		_, reqArr := fs.mach.TransferVia(fs.mach.NIC(c.Node), fs.ioNICs[sp.server], reqMsg, c.Proc.Now())
		diskDone := fs.disks[sp.server].AccessClass(reqArr, sp.localOff, sp.n, class)
		_, dataArr := fs.mach.TransferVia(fs.ioNICs[sp.server], fs.mach.NIC(c.Node), sp.n, diskDone)
		if dataArr > end {
			end = dataArr
		}
	}
	return end
}

// Snapshot implements FileSystem (out-of-band staging).
func (fs *GPFS) Snapshot() map[string][]byte { return fs.ns.snapshot() }

// Restore implements FileSystem (out-of-band staging). Restored files
// start with clean token and metanode state, as after a remount.
func (fs *GPFS) Restore(files map[string][]byte) { fs.ns.restore(files) }
