package pfs

import "strings"

// WrapPrefix returns a view of fs in which every file name is prefixed
// with the given string — a per-tenant namespace over a shared file
// system, the way batch systems give each job its own output directory.
// Zero-cost: the wrapper rewrites names only; every virtual-time charge
// is the backing file system's. File handles report their prefixed name,
// so Darshan-style counters naturally attribute traffic to the tenant.
//
// Snapshot and Restore stay whole-volume (out-of-band staging moves the
// machine's disks, not one job's view). An empty prefix returns fs
// unchanged.
func WrapPrefix(fs FileSystem, prefix string) FileSystem {
	if prefix == "" {
		return fs
	}
	p := &prefixFS{inner: fs, prefix: prefix}
	p.placer, _ = As[PlacementRestorer](fs)
	p.codec, _ = As[CodecReporter](fs)
	return p
}

type prefixFS struct {
	inner  FileSystem
	prefix string
	// The two capabilities whose file-name argument must be prefixed,
	// resolved below this layer once (nil when no layer has them).
	placer PlacementRestorer
	codec  CodecReporter
}

func (p *prefixFS) path(name string) string { return p.prefix + name }

// Unwrap implements Wrapper.
func (p *prefixFS) Unwrap() FileSystem { return p.inner }

func (p *prefixFS) Name() string                    { return p.inner.Name() }
func (p *prefixFS) Stats() Stats                    { return p.inner.Stats() }
func (p *prefixFS) Exists(name string) bool         { return p.inner.Exists(p.path(name)) }
func (p *prefixFS) Snapshot() map[string][]byte     { return p.inner.Snapshot() }
func (p *prefixFS) Restore(files map[string][]byte) { p.inner.Restore(files) }

// Create, Open and CreatePlaced return the backing handle itself: it
// already reports the prefixed name, and nothing else about it changes.

func (p *prefixFS) Create(c Client, name string) (File, error) {
	return p.inner.Create(c, p.path(name))
}

func (p *prefixFS) Open(c Client, name string) (File, error) {
	return p.inner.Open(c, p.path(name))
}

// CreatePlaced implements PlacedCreator (plain create when the backing
// tier cannot place).
func (p *prefixFS) CreatePlaced(c Client, name string, server int) (File, error) {
	return CreatePlacedOn(p.inner, c, p.path(name), server)
}

// PlaceExisting implements PlacementRestorer under the prefixed name.
func (p *prefixFS) PlaceExisting(name string, server int) bool {
	return p.placer != nil && p.placer.PlaceExisting(p.path(name), server)
}

// RecordCodecBytes implements CodecReporter, prefixing the file so
// compressed-transfer accounting lands under the tenant's names.
func (p *prefixFS) RecordCodecBytes(file string, write bool, logical, physical int64) {
	if p.codec != nil {
		p.codec.RecordCodecBytes(p.path(file), write, logical, physical)
	}
}

// TrimPrefix strips a tenant prefix from a reported file name ("job-a/"
// from "job-a/dump00"); names without the prefix pass through. Report
// code uses it to fold per-tenant names back onto the shared layout.
func TrimPrefix(name, prefix string) string {
	return strings.TrimPrefix(name, prefix)
}
