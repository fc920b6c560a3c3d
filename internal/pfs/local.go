package pfs

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/machine"
	"repro/internal/sim"
)

// LocalConfig parameterizes the fourth experiment's storage: each compute
// node's own disk, driven through the PVFS client interface. There is no
// network between client and storage and no shared namespace integration:
// each node sees only the bytes it wrote itself — the paper notes the
// resulting output "requires additional efforts to integrate".
type LocalConfig struct {
	Disk     DiskParams
	PerCall  float64
	MetaTime float64
}

// DefaultLocal returns the calibration used for the paper reproduction
// (the same 9 GB IDE disks as the PVFS iods, minus the daemons and wire).
func DefaultLocal() LocalConfig {
	return LocalConfig{
		Disk:     DiskParams{Seek: 9e-3, PerReq: 0.3e-3, BW: 22e6},
		PerCall:  40e-6,
		MetaTime: 0.5e-3,
	}
}

// LocalFS is the node-local disk model.
type LocalFS struct {
	cfg   LocalConfig
	mach  *machine.Machine
	mu    sync.Mutex
	disks map[int]*Disk
	files map[string]map[int]*ByteStore // name -> node -> partition
	obs   sim.ServeObserver             // attached to lazily created disks too
	stats statsCollector
}

// NewLocalFS builds the node-local file system.
func NewLocalFS(mach *machine.Machine, cfg LocalConfig) *LocalFS {
	return &LocalFS{
		cfg:   cfg,
		mach:  mach,
		disks: make(map[int]*Disk),
		files: make(map[string]map[int]*ByteStore),
	}
}

// Name implements FileSystem.
func (fs *LocalFS) Name() string { return "local" }

// Stats implements FileSystem.
func (fs *LocalFS) Stats() Stats { return fs.stats.snapshot() }

// Exists implements FileSystem.
func (fs *LocalFS) Exists(name string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[name]
	return ok
}

func (fs *LocalFS) disk(node int) *Disk {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, ok := fs.disks[node]
	if !ok {
		d = NewDisk(fmt.Sprintf("local/node%d", node), fs.cfg.Disk)
		d.Server().SetObserver(fs.obs)
		fs.disks[node] = d
	}
	return d
}

// SetServeObserver implements ServeObservable: it covers existing per-node
// disks and remembers o for nodes whose disk has not been touched yet.
func (fs *LocalFS) SetServeObserver(o sim.ServeObserver) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.obs = o
	for _, d := range fs.disks {
		d.Server().SetObserver(o)
	}
}

func (fs *LocalFS) partition(name string, node int, create bool) (*ByteStore, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parts, ok := fs.files[name]
	if !ok {
		if !create {
			return nil, fmt.Errorf("pfs: open %q: no such file", name)
		}
		parts = make(map[int]*ByteStore)
		fs.files[name] = parts
	}
	st, ok := parts[node]
	if !ok {
		st = NewByteStore()
		parts[node] = st
	}
	return st, nil
}

// Create implements FileSystem. The file springs into existence on every
// node; each node's partition starts empty.
func (fs *LocalFS) Create(c Client, name string) (File, error) {
	c.Proc.Advance(fs.cfg.MetaTime)
	fs.stats.create()
	if _, err := fs.partition(name, c.Node, true); err != nil {
		return File{}, err
	}
	return File{&localFile{fs: fs, name: name}}, nil
}

// Open implements FileSystem.
func (fs *LocalFS) Open(c Client, name string) (File, error) {
	fs.mu.Lock()
	_, ok := fs.files[name]
	fs.mu.Unlock()
	if !ok {
		return File{}, fmt.Errorf("pfs: open %q: no such file", name)
	}
	c.Proc.Advance(fs.cfg.MetaTime)
	fs.stats.open()
	return File{&localFile{fs: fs, name: name}}, nil
}

type localFile struct {
	fs   *LocalFS
	name string
}

func (f *localFile) Name() string { return f.name }

func (f *localFile) Size(c Client) int64 {
	st, err := f.fs.partition(f.name, c.Node, true)
	if err != nil {
		return 0
	}
	return st.Size()
}

func (f *localFile) Close(c Client) {}

// Do implements Handle. Call overhead and a write's memory copy stay on the
// caller's clock (the CPU really does that work at issue) and the disk is
// charged at issue; a read's completion includes the memory copy out of the
// buffer cache. The disk is the caller's own and cannot straggle or die, so
// a deadline is never missed: By is Block here.
func (f *localFile) Do(c Client, r Req) (float64, error) {
	fs := f.fs
	n := r.Len()
	if n == 0 {
		return idle(c, r)
	}
	if r.Mode == By {
		r.Mode = Block
	}
	var end float64
	if r.Write {
		c.Proc.Advance(fs.cfg.PerCall + fs.mach.CopyTime(n))
		end = fs.disk(c.Node).Access(c.Proc.Now(), r.Off, n)
	} else {
		c.Proc.Advance(fs.cfg.PerCall)
		end = fs.disk(c.Node).Access(c.Proc.Now(), r.Off, n) + fs.mach.CopyTime(n)
	}
	st, _ := fs.partition(f.name, c.Node, true)
	return settle(c, r, end, fs.Name(), f.name, st, &fs.stats)
}

// Snapshot implements FileSystem: entries are keyed "node<N>/<name>"
// because every node holds its own partition.
func (fs *LocalFS) Snapshot() map[string][]byte {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make(map[string][]byte)
	for name, parts := range fs.files {
		for node, st := range parts {
			out[fmt.Sprintf("node%d/%s", node, name)] = st.Bytes()
		}
	}
	return out
}

// Restore implements FileSystem, accepting keys produced by Snapshot. Each
// partition adopts its bytes by reference, as a write does: what Snapshot
// returned is a fresh copy.
func (fs *LocalFS) Restore(files map[string][]byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for key, data := range files {
		var node int
		var name string
		if _, err := fmt.Sscanf(key, "node%d/", &node); err != nil {
			continue
		}
		if i := strings.IndexByte(key, '/'); i >= 0 {
			name = key[i+1:]
		}
		parts, ok := fs.files[name]
		if !ok {
			parts = make(map[int]*ByteStore)
			fs.files[name] = parts
		}
		st := NewByteStore()
		st.WriteAt(data, 0)
		parts[node] = st
	}
}
