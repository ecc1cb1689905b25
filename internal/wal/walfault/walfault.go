// Package walfault is the WAL's crash-injection harness: an in-memory
// wal.File that models what a kernel actually guarantees — bytes written
// before the last successful fsync survive a crash, everything after is
// up for grabs — plus a fault plan that fails writes (cleanly or torn
// mid-frame) and fsyncs at chosen points. Tests drive a wal.Writer over
// a File, "crash" it by reading Durable(), and replay the survivor
// image to prove prefix-consistent recovery.
package walfault

import (
	"errors"
	"sync"
)

// ErrInjected is the error every planned fault returns.
var ErrInjected = errors.New("walfault: injected fault")

// Plan schedules faults. The zero Plan injects nothing.
type Plan struct {
	// FailWriteAtByte fails the write that would extend the file past
	// this many bytes. With TornWrite the prefix up to the boundary
	// lands first — a torn frame — otherwise the write fails whole.
	// 0 means never.
	FailWriteAtByte int64
	// TornWrite makes the failing write partial instead of dropped.
	TornWrite bool
	// FailSyncAt fails the Nth fsync (1-based) and every one after —
	// the short-fsync fault: bytes are in the file image but never
	// durable. 0 means never.
	FailSyncAt int
}

// File is an in-memory crash-faithful log file. The durable prefix only
// advances on a successful Sync; Durable() is the byte image a crash at
// any moment would leave behind.
type File struct {
	mu      sync.Mutex
	plan    Plan
	buf     []byte
	durable int
	syncs   int
	closed  bool
}

// New returns a File with the given fault plan and an already-durable
// initial image (typically a wal.Header()).
func New(plan Plan, initial []byte) *File {
	f := &File{plan: plan, buf: append([]byte(nil), initial...)}
	f.durable = len(f.buf)
	return f
}

// Write implements wal.File, honoring the write-fault plan.
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, errors.New("walfault: write on closed file")
	}
	if f.plan.FailWriteAtByte > 0 && int64(len(f.buf)+len(p)) > f.plan.FailWriteAtByte {
		if f.plan.TornWrite {
			keep := int(f.plan.FailWriteAtByte) - len(f.buf)
			if keep > 0 {
				f.buf = append(f.buf, p[:keep]...)
			}
		}
		return 0, ErrInjected
	}
	f.buf = append(f.buf, p...)
	return len(p), nil
}

// Sync implements wal.File: on success the whole image becomes durable;
// a planned short-fsync leaves the durable watermark where it was.
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	if f.plan.FailSyncAt > 0 && f.syncs >= f.plan.FailSyncAt {
		return ErrInjected
	}
	f.durable = len(f.buf)
	return nil
}

// Close implements wal.File.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

// Durable returns the bytes a crash right now would preserve: the image
// as of the last successful fsync.
func (f *File) Durable() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]byte(nil), f.buf[:f.durable]...)
}

// Bytes returns the full written image, durable or not — what survives
// a clean close rather than a crash.
func (f *File) Bytes() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]byte(nil), f.buf...)
}
