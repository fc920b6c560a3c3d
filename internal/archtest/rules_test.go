// Package archtest holds the repository's structure rules as one table.
// Each row is a design decision DESIGN.md states — one scheduler, one
// aggregator path, one store, one refiner, the layer order — checked over
// the syntax of every .go file under the root (comments and string literals
// never count) and, for a few rows, over the docs and the ci workflow. A row
// carries the DESIGN.md sections it enforces, the PR that set it, a scope, a
// check (its kind) and a mutation: an edit that breaks the rule, which the
// test applies in memory, asserting that the row then fails. Run one row
// with
//
//	go test ./internal/archtest -run 'TestRules/<name>'
//
// A new rule is a new row with its mutation, never a shell step in ci.yml.
// The package has only test files and never writes to the tree.
package archtest

import (
	"path"
	"regexp"
	"strings"
	"testing"
)

type rule struct {
	name     string // the subtest name
	design   string // the DESIGN.md sections the rule enforces, "§2a, §8"
	pr       int    // the CHANGES.md entry that set it
	scope    scope
	check    check
	mutation edit // must make check fail
}

// in selects the non-test files of the given directories, subtrees or files.
func in(paths ...string) scope { return scope{in: paths} }

// mutant adds a file to the package in dir with src after the package clause.
func mutant(dir, src string) edit {
	return edit{path: dir + "/zz_mutant.go", new: "package " + path.Base(dir) + "\n\n" + src + "\n"}
}

// mutantTest adds a test file to the package in dir.
func mutantTest(dir, src string) edit {
	return edit{path: dir + "/zz_mutant_test.go", new: "package " + path.Base(dir) + "\n\n" + src + "\n"}
}

var (
	// The one world builder's scope: what builds runs, not what demonstrates
	// or measures them, and not mpi's own worlds.
	assembly = scope{out: []string{"bench/...", "examples/...", "internal/mpi/..."}}
	// Outside the packer and the benchmark.
	outsidePacker = scope{out: []string{"bench/...", "internal/compress/...", "internal/castore/..."}}
	// A handle's Do, the one request primitive every wrapper implements.
	doImpl = `\)\.Do\((pfs\.)?Client, (pfs\.)?Req\)$`
)

var rules = []rule{
	// One scheduler: Engine.Run alone decides who runs, switching between
	// ranks as coroutines on its caller's goroutine. A channel, an atomic or
	// a go statement is the goroutine baton growing back; a second iter.Pull
	// is a second scheduler.
	{name: "sim-no-chan", design: "§13", pr: 20, scope: in("internal/sim"),
		check:    forbid(chans()),
		mutation: mutant("internal/sim", "var baton chan int")},
	{name: "sim-no-atomic", design: "§13", pr: 20, scope: in("internal/sim"),
		check:    forbid(imports(`^sync/atomic$`)),
		mutation: mutant("internal/sim", `import _ "sync/atomic"`)},
	{name: "sim-no-go", design: "§13", pr: 20, scope: in("internal/sim"),
		check:    forbid(goStmts()),
		mutation: mutant("internal/sim", "func spawn() { go spawn() }")},
	{name: "sim-one-pull", design: "§13", pr: 20, scope: in("internal/sim"),
		check: count(1, calls(`^iter\.Pull(\[.*\])?$`, "")),
		mutation: mutant("internal/sim", `import "iter"

func pull(seq iter.Seq[int]) { iter.Pull(seq) }`)},

	// One aggregator path: the extent union by merge tree, pieces placed by
	// offset in scratch the rank owns. A piece record, a piece sort, a
	// staging buffer, the per-aggregator cut or a pool is the old path; a
	// second ExchangeScratch is a fork of the exchange.
	{name: "mpiio-no-piece-records", design: "§2a, §8", pr: 21, scope: in("internal/mpiio"),
		check:    forbid(idents(`rpiece|writeCoalesced|appendPieces|encodeRPieces|intersectInto|cbBuf`)),
		mutation: mutant("internal/mpiio", "type rpiece struct{ off, n int64 }")},
	{name: "mpiio-no-pool", design: "§2a, §8", pr: 21, scope: in("internal/mpiio"),
		check: forbid(sels(`^sync\.Pool$`)),
		mutation: mutant("internal/mpiio", `import "sync"

var pieces sync.Pool`)},
	{name: "mpiio-no-piece-sort", design: "§2a, §8", pr: 21, scope: in("internal/mpiio"),
		check:    forbid(calls(`^slices\.SortFunc$`, `^pieces`)),
		mutation: mutant("internal/mpiio", "func order(pieces []int) { slices.SortFunc(pieces, cmp.Compare[int]) }")},
	{name: "mpi-one-exchange", design: "§2a, §8", pr: 21, scope: in("internal/mpi/collectives.go"),
		check:    count(1, decls(`^\(\*Rank\)\.ExchangeScratch\(`)),
		mutation: edit{path: "internal/mpi/collectives.go", new: "\nfunc (r *Rank) ExchangeScratch() {}\n"}},

	// One delivery rule: every collective passes its payload by reference,
	// and each rooted collective has one form, over views. A second gather,
	// scatter or all-to-all beside the one, or a collective that forwards
	// with the cloning Send (or its post), is a second ownership rule.
	{name: "mpi-one-delivery", design: "§13", pr: 43, scope: in("internal/mpi"),
		check: forbid(decls(`^\(\*Rank\)\.(GathervView|ScattervView|Alltoallv)\(`),
			inFile("internal/mpi/collectives.go", calls(`\.(Send|post)$`, ""))),
		mutation: mutant("internal/mpi", "func (r *Rank) Alltoallv() {}")},

	// One reply form: a two-phase read aggregator is lent its extents and
	// answers with references to the lent pieces, so nobody copies a payload
	// byte between the store and the reader. A join of the replies, a list
	// of reply payloads in the scratch, or a direction flag on transfer is
	// the copying read path growing back.
	{name: "two-phase-read-by-reference", design: "§13", pr: 38, scope: in("internal/mpiio"),
		check: forbid(calls(`^bytes\.Join$`, ""), fieldDecls(`^fileScratch\.parts$`),
			decls(`^\(\*fileScratch\)\.transfer\(.*bool`)),
		mutation: edit{path: "internal/mpiio/mpiio.go", new: "\nfunc join(parts [][]byte) []byte { return bytes.Join(parts, nil) }\n"}},

	// One piece form: bytes at an offset are a pfs.Piece from the store's
	// index, through a lend read and an aggregator's reply, to a view, and
	// the one search and copy over pieces are pfs's. A private extent or
	// part type, a second search or copy, or a join of lent pieces by
	// position is a layer respelling the form.
	{name: "one-piece-form", design: "§13", pr: 41,
		scope: in("internal/mpi", "internal/mpiio", "internal/pfs", "internal/faultfs", "internal/hdf4", "internal/castore"),
		check: forbid(decls(`^type (Part|extent)$`), decls(`^(CopyParts|partAt)\(|firstEndingAfter`),
			calls(`^bytes\.Join$`, "")),
		mutation: mutant("internal/pfs", "type extent struct{ off int64; data []byte }")},

	// One matcher: the lzss chain links live in a 4 Ki ring in Compress's
	// frame, and the chunker skips the bytes that cannot cut. An input-sized
	// links array, a second Compress or SplitBounds, or unsafe is the
	// replaced kernel (or a way round its bounds checks); the old kernels
	// live in _test.go files only.
	{name: "compress-no-chain-array", design: "§7, §12", pr: 22, scope: in("internal/compress"),
		check:    forbid(calls(`^make$`, `^\[\]int32, len\(src\)$`)),
		mutation: mutant("internal/compress", "func links(src []byte) []int32 { return make([]int32, len(src)) }")},
	{name: "lzss-one-compress", design: "§7, §12", pr: 22, scope: in("internal/compress"),
		check:    count(1, decls(`^\(lzssCodec\)\.Compress\(`)),
		mutation: mutant("internal/compress", "func (lzssCodec) Compress(dst, src []byte) []byte { return dst }")},
	{name: "chunker-one-splitbounds", design: "§7, §12", pr: 22, scope: in("internal/castore/chunker.go"),
		check:    count(1, decls(`^SplitBounds\(`)),
		mutation: edit{path: "internal/castore/chunker.go", new: "\nfunc SplitBounds() {}\n"}},
	{name: "compress-castore-no-unsafe", design: "§7, §12", pr: 22,
		scope:    scope{in: []string{"internal/compress", "internal/castore"}, tests: true},
		check:    forbid(imports(`^unsafe$`)),
		mutation: mutantTest("internal/castore", `import _ "unsafe"`)},

	// One store: ByteStore is a sorted index of the buffers writes handed
	// it, kept by reference, and lends them back read-only through one
	// method. A page, a page map, a second write, read or lend path, a pool,
	// unsafe or a seventh Req field (an "owned" or "copy" flag) is the
	// copying store, or a switch between the two, growing back.
	{name: "pfs-no-pages", design: "§13", pr: 23, scope: in("internal/pfs"),
		check:    forbid(idents(`storePageSize`)),
		mutation: mutant("internal/pfs", "const storePageSize = 64 << 10")},
	{name: "pfs-no-page-map", design: "§13", pr: 23, scope: in("internal/pfs"),
		check:    forbid(mapTypes(`^map\[int64\]\[\]byte`)),
		mutation: mutant("internal/pfs", "type pagedStore struct{ pages map[int64][]byte }")},
	{name: "pfs-no-pool", design: "§13", pr: 23, scope: in("internal/pfs"),
		check: forbid(sels(`^sync\.Pool$`)),
		mutation: mutant("internal/pfs", `import "sync"

var pages sync.Pool`)},
	{name: "pfs-no-unsafe", design: "§13", pr: 23, scope: in("internal/pfs"),
		check:    forbid(imports(`^unsafe$`)),
		mutation: mutant("internal/pfs", `import _ "unsafe"`)},
	{name: "bytestore-one-writeat", design: "§13", pr: 23, scope: in("internal/pfs"),
		check:    count(1, decls(`^\(\*ByteStore\)\.WriteAt\(`)),
		mutation: mutant("internal/pfs", "func (s *ByteStore) WriteAt(data []byte, off int64) {}")},
	{name: "bytestore-one-readat", design: "§13", pr: 23, scope: in("internal/pfs"),
		check:    count(1, decls(`^\(\*ByteStore\)\.ReadAt\(`)),
		mutation: mutant("internal/pfs", "func (s *ByteStore) ReadAt(buf []byte, off int64) {}")},
	{name: "bytestore-one-lend", design: "§13", pr: 31, scope: in("internal/pfs"),
		check:    count(1, decls(`^\(\*ByteStore\)\.[A-Za-z]*(Lend|View|Borrow)[A-Za-z]*\(`)),
		mutation: mutant("internal/pfs", "func (s *ByteStore) ViewAt(off, n int64) []byte { return nil }")},
	{name: "req-fields", design: "§13", pr: 31, scope: in("internal/pfs/pfs.go"),
		check: fields("Req", "Write", "Mode", "Buf", "Lend", "Off", "Deadline"),
		mutation: edit{path: "internal/pfs/pfs.go", old: "\tDeadline float64 // By only\n",
			new: "\tDeadline float64 // By only\n\tOwned    bool\n"}},

	// One stripe map: every striped model places a request by its file's
	// layout, one extent per server, computed. A per-daemon regrouping, a
	// stripe list on a span or a GPFS placement map beside the layouts is
	// the per-request stripe walk, or a second placement, growing back.
	{name: "one-stripe-map", design: "§2", pr: 37, scope: in("internal/pfs"),
		check:    forbid(decls(`^perIOD\(`), fieldDecls(`^(stripeSpan\.stripes|GPFS\.placed)$`)),
		mutation: mutant("internal/pfs", "func perIOD(spans []stripeSpan, n int) [][]stripeSpan { return nil }")},

	// One copy on the way to the owner: the HDF4 root sends views of the
	// arrays it was lent. A GatherSub in hdf4io.go is the block packed at
	// the root growing back.
	{name: "hdf4-root-sends-views", design: "§13", pr: 36, scope: in("internal/enzo/hdf4io.go"),
		check: forbid(calls(`\.GatherSub$`, "")),
		mutation: edit{path: "internal/enzo/hdf4io.go",
			new: "\nfunc pack(sub mpi.Subarray, full []byte) []byte { return sub.GatherSub(full) }\n"}},

	// One packer: a write-once array is packed, split and keyed at most once,
	// by the rank's compressor and its chunk table, found again by identity.
	// A second Pack caller, Squeeze, split or Put site, a pool or a
	// package-level map, or a memo key built by formatting is a second
	// packer or a process-wide cache with no owner.
	{name: "no-pack-outside-compress", design: "§7, §12", pr: 24,
		scope:    scope{out: []string{"bench/...", "internal/compress/..."}},
		check:    forbid(calls(`^compress\.Pack$`, "")),
		mutation: mutant("internal/enzo", "func repack() { compress.Pack(nil, nil) }")},
	{name: "compress-one-squeeze", design: "§7, §12", pr: 24, scope: in("internal/compress"),
		check:    count(1, decls(`^(\(.*\)\.)?Squeeze\(`)),
		mutation: mutant("internal/compress", "func Squeeze() {}")},
	{name: "one-split-site", design: "§7, §12", pr: 24, scope: outsidePacker,
		check:    count(1, calls(`^castore\.(SplitBounds|Split)$`, "")),
		mutation: mutant("internal/enzo", "func resplit(b []byte) { castore.SplitBounds(b, castore.Params{}) }")},
	{name: "one-put-site", design: "§7, §12", pr: 24, scope: outsidePacker,
		check:    count(1, calls(`\.cas\.Put$`, "")),
		mutation: mutant("internal/enzo", "func reput(s *Sim) { s.cas.Put() }")},
	{name: "compress-castore-no-pool", design: "§7, §12", pr: 24, scope: in("internal/compress", "internal/castore"),
		check: forbid(sels(`^sync\.Pool$`)),
		mutation: mutant("internal/castore", `import "sync"

var scratch sync.Pool`)},
	// The codec registry (byName, byID) is a table filled by the codecs'
	// init functions, not a memo.
	{name: "compress-castore-no-package-map", design: "§7, §12", pr: 24, scope: in("internal/compress", "internal/castore"),
		check:    forbid(unless(pkgMaps(), `^var (byName|byID) `)),
		mutation: mutant("internal/castore", "var seen = map[Key]bool{}")},
	// One fan-out: pure codec work may run on every core through the one
	// worker loop, compress.Fanout, joined before it returns (PackAll's
	// packs, the castore read-ahead's decodes); the rank code above it stays
	// one thread under the engine. A go statement anywhere else in the
	// codec, the store or the rank's I/O stack is parallelism leaking into
	// code the engine schedules.
	{name: "one-codec-fanout", design: "§7", pr: 45,
		scope:    in("internal/compress", "internal/enzo", "internal/castore", "internal/hdf5", "internal/mpiio", "internal/mpi"),
		check:    sites(goStmts(), "internal/compress/charged.go: Fanout"),
		mutation: mutant("internal/enzo", "func spawn() { go spawn() }")},
	{name: "memo-key-not-formatted", design: "§7, §12", pr: 24,
		scope:    in("internal/compress/charged.go", "internal/enzo/hiercache.go"),
		check:    forbid(calls(`^fmt\.Sprintf$`, "")),
		mutation: edit{path: "internal/enzo/hiercache.go", new: "\nfunc memoKey(np int) string { return fmt.Sprintf(\"np%d\", np) }\n"}},

	// Nothing no run uses: diag.AutoTune is the one tuning entry point and
	// enzo knows nothing of tuning; the rank's compressor carries its codec
	// and cost model, so nothing overrides the rate and no hdf5 write takes a
	// codec beside it; Subarray and run lists are the only datatypes.
	{name: "one-autotune", design: "§14", pr: 25, scope: scope{out: []string{"bench/..."}},
		check:    count(1, decls(`^(\(.*\)\.)?AutoTune\(`)),
		mutation: mutant("internal/enzo", "func AutoTune() {}")},
	{name: "enzo-no-tuner-hook", design: "§14", pr: 25, scope: in("internal/enzo"),
		check:    forbid(idents(`RegisterAutoTuner|AutoTune`)),
		mutation: mutant("internal/enzo", "var AutoTuner func(*Config)")},
	{name: "diag-no-init", design: "§14", pr: 25, scope: in("internal/diag"),
		check:    forbid(decls(`^init\(\)$`)),
		mutation: mutant("internal/diag", "func init() {}")},
	{name: "no-codec-rate-knob", design: "§7", pr: 25,
		scope:    scope{out: []string{"bench/...", "internal/compress/..."}},
		check:    forbid(idents(`CompressBps|DecompressBps`)),
		mutation: mutant("internal/enzo", "type rates struct{ CompressBps float64 }")},
	{name: "hdf5-no-codec-argument", design: "§7", pr: 25, scope: in("internal/hdf5"),
		check: forbid(
			decls(`^\(.*\)\.(Issue)?WriteCompressed\(.*Codec|^(\(.*\)\.)?CreateDatasetZ\(.*Codec`),
			calls(`CreateDatasetZ$`, `Codec`)),
		mutation: mutant("internal/hdf5", "func (d *Dataset) IssueWriteCompressed(raw []byte, c compress.Codec) {}")},
	{name: "mpi-no-derived-datatypes", design: "§2", pr: 25, scope: in("internal/mpi"),
		check:    forbid(decls(`^type (Datatype|Contiguous|Vector|Indexed|Shifted)$|^Concat\(`)),
		mutation: mutant("internal/mpi", "type Vector struct{ Count, Block, Stride int }")},

	// One tuner: the hint rules live in diag.Suggest beside the detectors
	// they mirror and read the Report directly. A probe summary, a step type
	// or an adapter is the second layer; a second fmtBytes is a copy of
	// diag's.
	{name: "tuner-layer-gone", design: "§11, §14", pr: 28, scope: scope{},
		check: forbid(decls(`^(\(.*\)\.)?(AutoTuneSteps|TuneStep|ProbeFromReport|hintsFromSet|deltaFromStep)\(` +
			`|^type (AutoTuneSteps|TuneStep|ProbeFromReport|hintsFromSet|deltaFromStep)$`)),
		mutation: mutant("internal/diag", "type TuneStep struct{ Hint, From, To string }")},
	{name: "mpiio-no-probe", design: "§11, §14", pr: 28, scope: in("internal/mpiio"),
		check:    forbid(decls(`^type Probe$`)),
		mutation: mutant("internal/mpiio", "type Probe struct{}")},
	{name: "one-fmtbytes", design: "§11, §14", pr: 28, scope: scope{},
		check:    count(1, decls(`^fmtBytes\(`)),
		mutation: mutant("internal/enzo", `func fmtBytes(n int64) string { return "" }`)},

	// One device issue point: every access kind hands its requests to an
	// issuer, which builds a pfs.Req, and File.dev sends it down, plain or
	// under the retry deadlines. A third call of the handle's Do, or a named
	// request shape, is the fork growing back.
	{name: "mpiio-two-device-calls", design: "§8", pr: 19, scope: in("internal/mpiio"),
		check:    count(2, calls(`\.f\.Do$`, "")),
		mutation: mutant("internal/mpiio", "func third(fh *File) { fh.f.Do(nil, pfs.Req{}) }")},
	{name: "mpiio-no-named-shapes", design: "§8", pr: 19, scope: in("internal/mpiio"),
		check:    forbid(calls(`^pfs\.(WriteAtAsync|ReadAtAsync|WriteAtDeadline|ReadAtDeadline)$|\.f\.(ReadAt|WriteAt)$`, "")),
		mutation: mutant("internal/mpiio", "func direct(fh *File, b []byte) { fh.f.ReadAt(nil, b, 0) }")},

	// One observer: pfs.Tap is the only wrapper that watches calls go by;
	// the obs tracer is its one sink. Five handles implement Do: the shared
	// volume's (XFS, GPFS and PVFS), LocalFS's, the burst buffer, faultfs
	// and the tap. A sixth is a hand-forwarded wrapper or a model's handle
	// growing back. The row's name is historical: it counted seven before
	// the three shared-namespace models shared one handle.
	{name: "seven-do-impls", design: "§6", pr: 19, scope: scope{},
		check:    count(5, decls(doImpl)),
		mutation: mutant("internal/enzo", "func (w *wrapper) Do(c pfs.Client, r pfs.Req) (float64, error) { return 0, nil }")},
	{name: "no-do-in-obs-iotrace", design: "§6", pr: 19, scope: in("internal/obs", "internal/iotrace"),
		check:    forbid(decls(doImpl)),
		mutation: mutant("internal/iotrace", "func (f *file) Do(c pfs.Client, r pfs.Req) (float64, error) { return 0, nil }")},
	// One tap sink: obs.WrapFS builds the only tap, so the tracer's call log
	// is the one per-call store and iotrace reads it. A second pfs.Tap call
	// is a second recorder, and a second store, growing back.
	{name: "one-tap-sink", design: "§6", pr: 49, scope: scope{},
		check:    sites(calls(`^pfs\.Tap$`, ""), "internal/obs/counters.go: WrapFS"),
		mutation: mutant("internal/iotrace", "func wrap(fs pfs.FileSystem) pfs.FileSystem { return pfs.Tap(fs, func(pfs.Call) {}) }")},

	// One request primitive and one wrapper spine: the request shapes are
	// spelled once, in pfs.go, over the single Do, and volume geometry,
	// liveness and fault methods live on the striped volume only (a
	// model keeps DegradeDataServer, which PVFS extends to its daemon CPU);
	// wrappers are reached through Unwrap.
	{name: "shapes-only-in-pfs-go", design: "§2", pr: 15, scope: scope{out: []string{"internal/pfs/pfs.go"}},
		check:    forbid(decls(`^\(.*\)\.(WriteAtDeferred|ReadAtDeferred|ReadAtDeadline|WriteAtDeadline|LendAtDeadline)\(`)),
		mutation: mutant("internal/pfs", "func (f *tapFile) ReadAtDeadline() {}")},
	{name: "geometry-on-striped-models", design: "§2", pr: 15, scope: scope{},
		check: forbid(unless(
			decls(`^\(.*\)\.(NumDataServers|StripeUnit|DataServerFreeAt|DataServerFailAt|DegradeDataServer|FailDataServerAt)\(`),
			`^\(\*stripedVolume\)\.|^\(\*(PVFS|GPFS)\)\.DegradeDataServer\(`)),
		mutation: mutant("internal/pfs", "func (f *tapFile) StripeUnit() int64 { return 0 }")},

	// One volume: XFS, GPFS and PVFS share the namespace, the FileSystem
	// metadata surface and the handle through the volume they embed, so a
	// model declares only its devices. A metadata method on a model is a
	// per-model copy of the surface growing back.
	{name: "one-volume-surface", design: "§2", pr: 40, scope: in("internal/pfs"),
		check:    forbid(decls(`^\(\*(XFS|GPFS|PVFS)\)\.(Name|Stats|Exists|Create|Open|Snapshot|Restore)\(`)),
		mutation: mutant("internal/pfs", "func (fs *XFS) Exists(name string) bool { return false }")},

	// One world builder: enzo.Assemble puts every simulated run together —
	// engine, machine, file-system stack, worlds, tracer — for Run, the
	// scaled restart and fleets. A second engine, world, tracer wrap or
	// attach is a hand-built copy; a deleted transfer spelling declared
	// again is a second name for a transfer that has one.
	{name: "one-engine", design: "§2b", pr: 27, scope: assembly,
		check:    count(1, calls(`^sim\.NewEngine$`, "")),
		mutation: mutant("internal/tenant", "func engine() { sim.NewEngine() }")},
	{name: "one-world", design: "§2b", pr: 27, scope: assembly,
		check:    count(1, calls(`^mpi\.NewWorld(At)?$`, "")),
		mutation: mutant("internal/tenant", "func world() { mpi.NewWorldAt(nil, nil, 0, 0) }")},
	{name: "one-tracer-wrap", design: "§2b", pr: 27, scope: assembly,
		check:    count(1, calls(`^obs\.WrapFS$`, "")),
		mutation: mutant("internal/tenant", "func wrap() { obs.WrapFS(nil, nil) }")},
	{name: "one-tracer-attach", design: "§2b", pr: 27, scope: assembly,
		check:    count(1, calls(`\.Attach$`, "")),
		mutation: mutant("internal/tenant", "func attach(tr *obs.Tracer) { tr.Attach(nil) }")},
	{name: "transfer-spellings-gone", design: "§2b", pr: 27, scope: scope{},
		check: forbid(decls(`^(\(.*\)\.)?(IwriteAt|IreadAt|IwriteRuns|IreadRuns|IwriteList|IreadList|WriteAtAllBegin` +
			`|ReadAtAllBegin|ReadList|ReadHyperslab|ReadHyperslabIndependent|ReadCompressedSeg|ReadCompressedAll` +
			`|ReadAtAsync|WriteAtDeadline|JobName)\(`)),
		mutation: mutant("internal/mpiio", "func (fh *File) IwriteAt() {}")},
	{name: "box-empty-gone", design: "§2b", pr: 27, scope: scope{},
		check:    forbid(decls(`^\(\*?Box\)\.Empty\(`)),
		mutation: mutant("internal/amr", "func (b Box) Empty() bool { return false }")},

	// One refiner: amr.Refine prolongs every box of a grid and partitions its
	// particles in one pass, reached from the hierarchy builder and enzo's
	// dynamic refinement. Prolong or moveParticles is the box-by-box path
	// (the reference, in _test.go); a third caller is a second flag ->
	// cluster -> refine loop.
	{name: "prolong-gone", design: "§2", pr: 30, scope: scope{},
		check:    forbid(idents(`^(Prolong|moveParticles)$`)),
		mutation: mutant("internal/amr", "func Prolong(g *Grid, b Box) *Grid { return g }")},
	{name: "refine-callers", design: "§2", pr: 30, scope: scope{},
		check: sites(calls(`^(amr\.)?Refine$`, ""),
			"internal/amr/generate.go: (*Hierarchy).RefineLevel",
			"internal/enzo/refine.go: (*Sim).refineOwned"),
		mutation: mutant("internal/amr", "func (h *Hierarchy) again(g *Grid) { Refine(g, nil) }")},

	// One validity rule: enzo.RunSpec.Validate decides which compositions
	// run. A command that compares a backend is deciding for itself again.
	{name: "one-validity-rule", design: "§2b", pr: 48, scope: in("cmd/..."),
		check:    forbid(compares(`^enzo\.Backend[A-Z]`)),
		mutation: mutant("cmd/internal/runflags", "func hdf4(spec enzo.RunSpec) {\n\tif spec.Backend == enzo.BackendHDF4 {\n\t}\n}")},

	// One sweep table: a command reaches a sweep, a figure or a printer only
	// through a row of experiments.Registry().
	{name: "no-sweep-by-name-in-cmd", design: "§3", pr: 17, scope: scope{in: []string{"cmd/..."}, tests: true},
		check:    forbid(calls(`^experiments\.(Figure[0-9]+|[A-Za-z]+Sweep|Print[A-Z][A-Za-z0-9]*|Table1)$`, "")),
		mutation: edit{path: "cmd/iobench/zz_mutant.go", new: "package main\n\nfunc fig() { experiments.Figure8(experiments.Options{}) }\n"}},

	// One traced-run command: iodoctor runs a configuration under the tracer
	// and prints every view of it (counters, diagnosis, metrics, timeline).
	// A second command that builds a tracer is a second copy of that run.
	{name: "one-traced-run-command", design: "§6", pr: 35, scope: in("cmd/..."),
		check:    sites(calls(`^obs\.NewTracer$`, ""), "cmd/iodoctor/main.go: run"),
		mutation: edit{path: "cmd/enzosim/zz_mutant.go", new: "package main\n\nfunc traced() { obs.NewTracer() }\n"}},

	// DESIGN.md references resolve, so restructuring DESIGN.md cannot leave
	// a comment or a doc pointing at a section that is not there. A
	// reference may break across lines, as the mutations' do.
	{name: "design-refs-go", design: "§2", pr: 28, scope: scope{tests: true},
		check:    designRefs(),
		mutation: mutant("internal/sim", "// The heap order is argued in DESIGN.md\n// §99.")},
	{name: "design-refs-docs", design: "§2", pr: 32,
		scope:    in("README.md", "EXPERIMENTS.md", "ROADMAP.md", "bench/README.md", ".claude/skills/verify/SKILL.md"),
		check:    designRefs(),
		mutation: edit{path: "README.md", new: "\nThe model is in DESIGN.md\n§99.\n"}},

	// One golden switch: internal/golden declares -update and only tests
	// import it. A test file that imports flag could declare a second switch;
	// runflags' tests build flag sets for the package they test.
	{name: "no-flag-in-tests", design: "§5", pr: 33,
		scope:    scope{out: []string{"cmd/internal/runflags"}, tests: true},
		check:    forbid(inTests(imports(`^flag$`))),
		mutation: mutantTest("internal/sim", "import \"flag\"\n\nvar updateGolden = flag.Bool(\"update-golden\", false, \"rewrite testdata\")")},
	{name: "golden-only-in-tests", design: "§5", pr: 33, scope: scope{},
		check:    forbid(imports(`/internal/golden$`)),
		mutation: mutant("internal/enzo", `import _ "repro/internal/golden"`)},

	// The layer order: an internal package imports only lower levels, so
	// the stack is a DAG with one direction.
	{name: "layer-order", design: "§2", pr: 32, scope: in("internal/..."),
		check: layers("golden sim amr", "machine", "pfs", "obs faultfs", "mpi compress hdf4 iotrace castore",
			"mpiio psort core", "hdf5 mdms", "enzo", "diag", "tenant", "experiments"),
		mutation: mutant("internal/pfs", `import _ "repro/internal/obs"`)},

	// The ci workflow's smoke lists are complete: a fuzz target or a
	// benchmark the smoke steps do not name is never run in CI.
	{name: "ci-fuzz-smoke-complete", design: "§2", pr: 32, scope: scope{tests: true},
		check:    smokeFuzz(".github/workflows/ci.yml"),
		mutation: mutantTest("internal/sim", "import \"testing\"\n\nfunc FuzzUnlisted(f *testing.F) {}")},
	{name: "ci-bench-smoke-complete", design: "§2", pr: 32, scope: scope{tests: true},
		check:    smokeBench(".github/workflows/ci.yml"),
		mutation: mutantTest("internal/sim", "import \"testing\"\n\nfunc BenchmarkUnlisted(b *testing.B) {}")},
}

var sectionRef = regexp.MustCompile(`§(\d+[a-z]?)`)

func TestRules(t *testing.T) {
	tr, err := head()
	if err != nil {
		t.Fatal(err)
	}
	have, err := tr.sections()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range rules {
		if seen[r.name] {
			t.Errorf("two rules are named %s", r.name)
		}
		seen[r.name] = true
		t.Run(r.name, func(t *testing.T) {
			refs := sectionRef.FindAllStringSubmatch(r.design, -1)
			if len(refs) == 0 || r.pr == 0 {
				t.Errorf("rule names no DESIGN.md section or no PR: %q, %d", r.design, r.pr)
			}
			for _, m := range refs {
				if !have[m[1]] {
					t.Errorf("rule cites DESIGN.md §%s, which has no heading", m[1])
				}
			}
			if v := r.check(tr, r.scope); len(v) > 0 {
				t.Errorf("broken (DESIGN.md %s, set by PR %d):\n\t%s", r.design, r.pr, strings.Join(v, "\n\t"))
			}
			m, err := tr.with(r.mutation)
			if err != nil {
				t.Fatalf("mutation does not apply: %v", err)
			}
			v := r.check(m, r.scope)
			if len(v) == 0 {
				t.Errorf("still passes with the mutation %+v: the rule no longer catches what it was written for", r.mutation)
			}
			t.Logf("the mutation trips it:\n\t%s", strings.Join(v, "\n\t"))
		})
	}
}

// Comments and string literals are not code: text that names a forbidden
// construct must trip no rule.
var harmless = []edit{
	{path: "internal/pfs/store.go", new: "\n// A sync.Pool of pages here would be the copying store growing back.\n"},
	{path: "internal/compress/charged.go", new: "\n// Keys are identities: no fmt.Sprintf(\"%p\", raw), no sync.Pool, no \"unsafe\".\n"},
	mutant("internal/sim", `const baton = "go func() { ch := make(chan int); atomic.AddInt64(&n, 1) }() sync/atomic iter.Pull("`),
	mutant("internal/mpiio", `const old = "rpiece cbBuf slices.SortFunc(pieces, byOff) x.f.Do(c, r) pfs.ReadAtAsync("`),
	mutant("internal/enzo", `// Assemble is the only sim.NewEngine(, mpi.NewWorld(, obs.WrapFS( and
// tr.Attach( site; amr.Prolong(g, b) and moveParticles( are the reference
// in _test.go, Refine( is RefineLevel's and refineOwned's, and diag.AutoTune
// tunes before a run, castore.SplitBounds( and s.cas.Put( included.`),
}

func TestCommentsAndStringsNeverTrip(t *testing.T) {
	tr, err := head()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range harmless {
		m, err := tr.with(e)
		if err != nil {
			t.Fatalf("%s: %v", e.path, err)
		}
		for _, r := range rules {
			if !r.scope.has(e.path) {
				continue // the rule reads none of the overlay
			}
			if v := r.check(m, r.scope); len(v) > 0 {
				t.Errorf("%s trips %s on %q:\n\t%s", e.path, r.name, e.new, strings.Join(v, "\n\t"))
			}
		}
	}
}
