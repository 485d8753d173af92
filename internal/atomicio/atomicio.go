// Package atomicio provides crash-safe file persistence for the
// checkpoints the serving stack writes continuously: telemetry
// snapshots, model envelopes, and scorer state. A bare os.Create
// truncates in place, so a crash mid-write leaves a torn file the
// readers can only report as corruption; WriteFile instead stages the
// bytes in a temporary file in the same directory, fsyncs, and renames
// over the destination, so the path always holds either the previous
// complete file or the new complete file — never a prefix of one.
//
// The package also carries the I/O fault seam for chaos testing:
// Hooks installed via SetHooks can shorten writes, fail renames, and
// truncate reads, letting the fault-injection harness exercise every
// adopter's crash-recovery path deterministically.
package atomicio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Hooks intercepts the primitive I/O steps of WriteFile and Open. All
// fields are optional. Hooks exist for fault injection and tests; the
// nil default is the production fast path.
type Hooks struct {
	// WrapWriter wraps the staged file before any payload bytes are
	// written; returning a writer that errors mid-stream simulates a
	// crash or disk-full during the write.
	WrapWriter func(w io.Writer) io.Writer
	// BeforeRename runs after the temp file is synced and closed, just
	// before the rename; returning an error simulates a crash between
	// write and publish (the destination must stay intact).
	BeforeRename func(path string) error
	// WrapReader wraps files opened through Open; returning a reader
	// that truncates simulates torn reads and partial downloads.
	WrapReader func(r io.Reader) io.Reader
}

// hooks is the installed fault seam; nil when injection is off.
var hooks atomic.Pointer[Hooks]

// SetHooks installs h as the package's I/O fault seam and returns a
// restore function that reinstates the previous hooks. Passing nil
// disables injection. Intended for tests and chaos runs only; callers
// must not leave hooks installed across unrelated tests.
func SetHooks(h *Hooks) (restore func()) {
	prev := hooks.Swap(h)
	return func() { hooks.Store(prev) }
}

// WriteFile atomically replaces path with the bytes write produces:
// the payload is staged in a same-directory temp file through a
// buffered writer, flushed, fsynced, closed, and renamed over path,
// then the directory entry is fsynced. On any error the temp file is
// removed and path is left exactly as it was.
func WriteFile(path string, write func(w io.Writer) error) (err error) {
	h := hooks.Load()
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicio: stage %s: %w", path, err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	var w io.Writer = tmp
	if h != nil && h.WrapWriter != nil {
		w = h.WrapWriter(w)
	}
	bw := bufio.NewWriter(w)
	if err = write(bw); err != nil {
		return fmt.Errorf("atomicio: write %s: %w", path, err)
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("atomicio: write %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("atomicio: sync %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("atomicio: close %s: %w", path, err)
	}
	if h != nil && h.BeforeRename != nil {
		if err = h.BeforeRename(path); err != nil {
			return fmt.Errorf("atomicio: publish %s: %w", path, err)
		}
	}
	if err = os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("atomicio: publish %s: %w", path, err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs the directory so the rename itself is durable.
// Best-effort: some filesystems reject directory fsync, and the rename
// has already happened atomically, so failures are ignored.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Open opens path for reading, routing the stream through the
// installed WrapReader hook so chaos runs can truncate or corrupt
// reads. Close always closes the underlying file.
func Open(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	h := hooks.Load()
	if h == nil || h.WrapReader == nil {
		return f, nil
	}
	return &hookedReader{r: h.WrapReader(f), f: f}, nil
}

// hookedReader reads through a hook-wrapped stream but closes the real
// file.
type hookedReader struct {
	r io.Reader
	f *os.File
}

func (h *hookedReader) Read(p []byte) (int, error) { return h.r.Read(p) }
func (h *hookedReader) Close() error               { return h.f.Close() }
