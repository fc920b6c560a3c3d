package pfs

// Call is one observed call at the pfs boundary — the definition every
// recorder shares. Start and Now are the caller's clock before and after the
// call, Done the device completion it returned (later than Now exactly for a
// Behind request; Now for a metadata call, which leaves nothing outstanding).
// Err is a failed create or open, or the *DeviceError of a By request that
// missed its deadline — which moved no bytes, whatever Req.Len() says. A
// metadata call ("create", "open", "close") has a zero Req; a request's Op is
// Req.Op(). A sink reads Req.Len() and never keeps or changes the bytes: a
// read's buffer belongs to the caller, a lend read's pieces and a write's
// buffer are the file's bytes by the time the sink runs (the store keeps the
// slice, see Req and Lend).
type Call struct {
	Client     Client
	Op         string
	File       string
	Req        Req
	Start, Now float64
	Done       float64
	Err        error
}

// Tap returns fs with sink called once after every create, open, close and
// request — failed ones too — and nothing else changed: every call goes down
// as it came, a request in its own mode, and sink only reads the clock. It is
// the one wrapper that observes; a recorder is a sink (obs.WrapFS).
func Tap(fs FileSystem, sink func(Call)) *TapFS {
	return &TapFS{inner: fs, sink: sink}
}

// TapFS is the file system Tap returns, exported so that a recorder which
// also receives a capability can embed it (obs.WrapFS adds CodecReporter).
type TapFS struct {
	inner FileSystem
	sink  func(Call)
}

// Unwrap implements Wrapper.
func (t *TapFS) Unwrap() FileSystem { return t.inner }

func (t *TapFS) Name() string                    { return t.inner.Name() }
func (t *TapFS) Stats() Stats                    { return t.inner.Stats() }
func (t *TapFS) Exists(name string) bool         { return t.inner.Exists(name) }
func (t *TapFS) Snapshot() map[string][]byte     { return t.inner.Snapshot() }
func (t *TapFS) Restore(files map[string][]byte) { t.inner.Restore(files) }

func (t *TapFS) Create(c Client, name string) (File, error) {
	start := c.Proc.Now()
	f, err := t.inner.Create(c, name)
	return t.opened(c, "create", name, start, f, err)
}

// CreatePlaced implements PlacedCreator (plain create when the inner file
// system cannot place), observed like any create.
func (t *TapFS) CreatePlaced(c Client, name string, server int) (File, error) {
	start := c.Proc.Now()
	f, err := CreatePlacedOn(t.inner, c, name, server)
	return t.opened(c, "create", name, start, f, err)
}

func (t *TapFS) Open(c Client, name string) (File, error) {
	start := c.Proc.Now()
	f, err := t.inner.Open(c, name)
	return t.opened(c, "open", name, start, f, err)
}

// opened reports a create or open that began at start and, if it
// succeeded, wraps the handle.
func (t *TapFS) opened(c Client, op, name string, start float64, f File, err error) (File, error) {
	t.sink(metaCall(c, op, name, start, err))
	if err != nil {
		return File{}, err
	}
	return File{Handle: &tapFile{inner: f, sink: t.sink}}, nil
}

func metaCall(c Client, op, file string, start float64, err error) Call {
	now := c.Proc.Now()
	return Call{Client: c, Op: op, File: file, Start: start, Now: now, Done: now, Err: err}
}

type tapFile struct {
	inner File
	sink  func(Call)
}

func (f *tapFile) Name() string        { return f.inner.Name() }
func (f *tapFile) Size(c Client) int64 { return f.inner.Size(c) }

func (f *tapFile) Close(c Client) {
	start := c.Proc.Now()
	f.inner.Close(c)
	f.sink(metaCall(c, "close", f.inner.Name(), start, nil))
}

// Do implements Handle.
func (f *tapFile) Do(c Client, r Req) (float64, error) {
	start := c.Proc.Now()
	end, err := f.inner.Do(c, r)
	f.sink(Call{Client: c, Op: r.Op(), File: f.inner.Name(), Req: r,
		Start: start, Now: c.Proc.Now(), Done: end, Err: err})
	return end, err
}
