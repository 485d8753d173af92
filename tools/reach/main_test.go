package main

import (
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

const source = `package p

type T struct{}

func F() {}

func unused() {
	_ = 1
}

func (T) Value() {}

func (*T) Pointer() {}

func (T) Wrapped() {}

func (t T) Dead() {
}

func Generic[E any](e E) {}

type G[E any] struct{}

func (G[E]) Method() {}

func init() {}
`

// dump reaches F, (*T).Pointer, T.Value directly, and T.Wrapped only
// through its pointer wrapper; annotations after the symbol are noise.
const dump = `# example.com/cmd
_ -> _rt0_amd64_linux
main.main -> example.com/p.F
main.main -> example.com/p.T.Value <UsedInIface>
main.main -> example.com/p.(*T).Pointer
main.main -> example.com/p.(*T).Wrapped
example.com/p.F -> example.com/p.Generic[go.shape.int]
`

func TestSymbolMapping(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p/p.go", source, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	fns := funcsIn(fset, file, "example.com/p")
	var syms []string
	for _, f := range fns {
		syms = append(syms, f.Sym)
	}
	want := []string{
		"example.com/p.F",
		"example.com/p.unused",
		"example.com/p.T.Value",
		"example.com/p.(*T).Pointer",
		"example.com/p.T.Wrapped",
		"example.com/p.T.Dead",
	}
	if !reflect.DeepEqual(syms, want) {
		t.Fatalf("symbols %q, want %q (generic functions and init left out)", syms, want)
	}
	if u := fns[1]; u.File != "p/p.go" || u.Line != 7 || u.Lines != 3 {
		t.Fatalf("unused at %s:%d, %d lines; want p/p.go:7, 3 lines", u.File, u.Line, u.Lines)
	}

	reached := map[string]bool{}
	parseDump(strings.NewReader(dump), reached)
	var names []string
	for _, f := range unreached(fns, reached) {
		names = append(names, f.Sym)
	}
	if want := []string{"example.com/p.unused", "example.com/p.T.Dead"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("unreached %q, want %q", names, want)
	}
}

func TestAllowlist(t *testing.T) {
	if _, err := readAllowlist(strings.NewReader("# comment\n\nexample.com/p.unused\n")); err == nil {
		t.Fatal("entry without a reason accepted")
	}
	allow, err := readAllowlist(strings.NewReader("# comment\n\nexample.com/p.unused kept for a test\nexample.com/p.Gone no longer unreached\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := allow["example.com/p.unused"]; got != "kept for a test" {
		t.Fatalf("reason %q", got)
	}
	fns := []fn{
		{Sym: "example.com/p.unused", Pkg: "example.com/p", File: "p/p.go", Line: 7, Lines: 3},
		{Sym: "example.com/p.T.Dead", Pkg: "example.com/p", File: "p/p.go", Line: 17, Lines: 2},
	}
	var out strings.Builder
	// T.Dead is not allowlisted, and the Gone entry is stale.
	if bad := report(&out, fns, allow); bad != 2 {
		t.Fatalf("report counted %d problems, want 2:\n%s", bad, out.String())
	}
	for _, line := range []string{
		"allowed   p/p.go:7\t3 lines\texample.com/p.unused",
		"UNREACHED p/p.go:17\t2 lines\texample.com/p.T.Dead",
		"     5  example.com/p",
		"stale allowlist entry (reached or gone): example.com/p.Gone",
	} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("report lacks %q:\n%s", line, out.String())
		}
	}
}
