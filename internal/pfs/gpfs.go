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
	stripedVolume
	cfg       GPFSConfig
	mach      *machine.Machine
	ioNICs    []*sim.Server
	vsd       map[int]*sim.Server // per compute node
	lockMgr   *sim.Server
	owners    map[*ByteStore]map[int64]int // file -> token block -> last writer
	metanodes map[*ByteStore]*metanode     // file -> shared-file metanode state
	obs       sim.ServeObserver            // attached to lazily created servers too
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
		cfg:       cfg,
		mach:      mach,
		vsd:       make(map[int]*sim.Server),
		lockMgr:   sim.NewServer("gpfs/tokenmgr"),
		owners:    make(map[*ByteStore]map[int64]int),
		metanodes: make(map[*ByteStore]*metanode),
	}
	var disks []*Disk
	for i := 0; i < cfg.Servers; i++ {
		disks = append(disks, NewDisk(fmt.Sprintf("gpfs/disk%d", i), cfg.Disk))
		fs.ioNICs = append(fs.ioNICs, sim.NewServer(fmt.Sprintf("gpfs/ionic%d", i)))
	}
	fs.mount("gpfs", fs, cfg.Unit, disks)
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
	for _, mn := range fs.metanodes {
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

func (fs *GPFS) meta(c Client, op string) { metaTxn(c, op, fs.cfg.MetaTime) }

// acquireTokens charges lock-manager time for every volume block (cfg.Unit)
// the request touches, whatever the file's layout: token granularity is
// not placement. Writes record ownership so a later writer from a
// different client pays the revocation cost.
func (fs *GPFS) acquireTokens(c Client, f *volFile, off, n int64, write bool) {
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
func (fs *GPFS) metanodeUpdate(c Client, f *volFile, off, n int64) {
	mn, ok := fs.metanodes[f.store]
	if !ok {
		mn = &metanode{srv: sim.NewServer("gpfs/metanode/" + f.name), lastExtender: -1}
		mn.srv.SetObserver(fs.obs)
		fs.metanodes[f.store] = mn
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

// issue charges the synchronous lock traffic on the caller's clock and the
// transfers plus disk work on the servers for a request of n bytes at off,
// returning when the slowest server's part is done: a write's
// acknowledgement, a read's last data arrival. The VSD queue, token
// acquisition and metanode update stay on the caller's clock at issue in
// every mode (they really do block the client thread).
func (fs *GPFS) issue(c Client, f *volFile, write bool, off, n int64) float64 {
	c.Proc.Advance(fs.cfg.PerCall)
	fs.nodeVSD(c.Node).ServeAndWait(c.Proc, fs.cfg.VSDPerReq)
	fs.acquireTokens(c, f, off, n, write)
	if write {
		fs.metanodeUpdate(c, f, off, n)
	}
	end := c.Proc.Now()
	class := c.Proc.Class()
	for sp := range fs.layouts.of(f.store).spans(off, n) {
		msg := int64(128) // a read's request message; a write sends its data
		if write {
			msg = sp.n
		}
		_, arr := fs.mach.TransferVia(fs.mach.NIC(c.Node), fs.ioNICs[sp.server], msg, c.Proc.Now())
		e := fs.disks[sp.server].AccessClass(arr, sp.localOff, sp.n, class)
		if write {
			e += fs.mach.Config().WireLatency // completion acknowledgement
		} else {
			_, e = fs.mach.TransferVia(fs.ioNICs[sp.server], fs.mach.NIC(c.Node), sp.n, e) // the data
		}
		if e > end {
			end = e
		}
	}
	return end
}
