package atomicio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func listTemps(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			tmps = append(tmps, e.Name())
		}
	}
	return tmps
}

func TestWriteFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	want := []byte("first version\n")
	if err := writeBytes(path, want); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, path); !bytes.Equal(got, want) {
		t.Fatalf("read back %q, want %q", got, want)
	}
	// Overwrite replaces the whole file, never appends.
	want2 := []byte("v2")
	if err := writeBytes(path, want2); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, path); !bytes.Equal(got, want2) {
		t.Fatalf("read back %q, want %q", got, want2)
	}
	if tmps := listTemps(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}

// TestWriteFileCrashMidWrite: a write that dies partway must leave the
// previous file byte-identical and clean up its staging temp.
func TestWriteFileCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.csv")
	prev := []byte("the good version")
	if err := writeBytes(path, prev); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("simulated crash")
	err := WriteFile(path, func(w io.Writer) error {
		if _, werr := w.Write([]byte("half of the new ver")); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if got := readAll(t, path); !bytes.Equal(got, prev) {
		t.Fatalf("destination corrupted: %q, want %q", got, prev)
	}
	if tmps := listTemps(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}

// TestWriteFileShortWriteHook: the WrapWriter fault seam cuts the
// payload off and the destination survives.
func TestWriteFileShortWriteHook(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	prev := []byte("previous model")
	if err := writeBytes(path, prev); err != nil {
		t.Fatal(err)
	}

	restore := SetHooks(&Hooks{WrapWriter: func(w io.Writer) io.Writer {
		return &failAfter{w: w, n: 5}
	}})
	defer restore()
	err := writeBytes(path, bytes.Repeat([]byte("x"), 1<<16))
	if err == nil {
		t.Fatal("short write not surfaced")
	}
	if got := readAll(t, path); !bytes.Equal(got, prev) {
		t.Fatalf("destination corrupted: %q", got)
	}
	if tmps := listTemps(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}

// TestWriteFileRenameFailure: a fault between stage and publish leaves
// the destination untouched.
func TestWriteFileRenameFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "agent.state")
	prev := []byte("prev")
	if err := writeBytes(path, prev); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("rename blocked")
	restore := SetHooks(&Hooks{BeforeRename: func(string) error { return boom }})
	defer restore()
	if err := writeBytes(path, []byte("next")); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	restore()
	if got := readAll(t, path); !bytes.Equal(got, prev) {
		t.Fatalf("destination corrupted: %q", got)
	}
	if tmps := listTemps(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}

func TestWriteFileNewFileNoDirectory(t *testing.T) {
	if err := writeBytes(filepath.Join(t.TempDir(), "missing", "f"), []byte("x")); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
}

// TestOpenTruncateHook: the WrapReader seam truncates the stream while
// Close still releases the real file.
func TestOpenTruncateHook(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data")
	payload := bytes.Repeat([]byte("abcd"), 100)
	if err := writeBytes(path, payload); err != nil {
		t.Fatal(err)
	}
	restore := SetHooks(&Hooks{WrapReader: func(r io.Reader) io.Reader {
		return io.LimitReader(r, 7)
	}})
	defer restore()
	rc, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("read %d bytes through truncating hook, want 7", len(got))
	}
	restore()
	rc, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err = io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("unhooked read wrong: %d bytes, err %v", len(got), err)
	}
}

// TestSetHooksRestores pins the stacking contract: restore reinstates
// whatever was installed before.
func TestSetHooksRestores(t *testing.T) {
	marker := errors.New("outer")
	r1 := SetHooks(&Hooks{BeforeRename: func(string) error { return marker }})
	r2 := SetHooks(nil)
	path := filepath.Join(t.TempDir(), "f")
	if err := writeBytes(path, []byte("a")); err != nil {
		t.Fatalf("inner nil hooks should pass: %v", err)
	}
	r2()
	if err := writeBytes(path, []byte("b")); !errors.Is(err, marker) {
		t.Fatalf("outer hooks not restored: %v", err)
	}
	r1()
	if err := writeBytes(path, []byte("c")); err != nil {
		t.Fatalf("clean state not restored: %v", err)
	}
}

// failAfter forwards n bytes then errors.
type failAfter struct {
	w io.Writer
	n int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, fmt.Errorf("failAfter: budget exhausted")
	}
	n := len(p)
	if n > f.n {
		n = f.n
	}
	n, err := f.w.Write(p[:n])
	f.n -= n
	if err == nil && n < len(p) {
		err = fmt.Errorf("failAfter: budget exhausted")
	}
	return n, err
}

// writeBytes atomically replaces path with data.
func writeBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
