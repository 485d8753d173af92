// Command reach lists the functions no binary of this repository can
// reach. It builds every main package (the module's and bench/'s) with
// the linker's dependency dump, inlining off so that inlined callees
// still show, maps each non-generic function declared outside main
// packages and test-support packages to its linker symbol, and prints
// every one the dumps never name, with its file, line and line count,
// then per-package totals. It exits 1 when an unreached function is not
// on the allowlist beside this file, or when an allowlist entry names
// no unreached function.
//
// Run it from the module root: go run ./tools/reach
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// skipDirs are left out of the walk: bench/ is its own module of main
// packages, and mltest is test support that only _test.go files import.
var skipDirs = map[string]bool{"bench": true, "internal/ml/mltest": true}

const allowlistFile = "tools/reach/allowlist.txt"

// fn is one declared function and its linker symbol.
type fn struct {
	Sym, Pkg, File string
	Line, Lines    int
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	module, err := exec.Command("go", "list", "-m").Output()
	if err != nil {
		return fmt.Errorf("go list -m: %w", err)
	}
	reached := map[string]bool{}
	for _, dir := range []string{".", "bench"} {
		if err := dumpMains(dir, reached); err != nil {
			return err
		}
	}
	fns, err := declared(".", strings.TrimSpace(string(module)))
	if err != nil {
		return err
	}
	f, err := os.Open(allowlistFile)
	if err != nil {
		return err
	}
	defer f.Close()
	allow, err := readAllowlist(f)
	if err != nil {
		return fmt.Errorf("%s: %w", allowlistFile, err)
	}
	if n := report(w, unreached(fns, reached), allow); n > 0 {
		return fmt.Errorf("%d problems (see above)", n)
	}
	return nil
}

// dumpMains builds every main package of the module in dir and adds
// each symbol its dependency dump names to reached.
func dumpMains(dir string, reached map[string]bool) error {
	list := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
	list.Dir = dir
	out, err := list.Output()
	if err != nil {
		return fmt.Errorf("go list in %s: %w", dir, err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		build := exec.Command("go", "build", "-o", os.DevNull, "-gcflags=all=-l", "-ldflags=-dumpdep", pkg)
		build.Dir = dir
		dump, err := build.CombinedOutput()
		if err != nil {
			return fmt.Errorf("build %s: %w\n%s", pkg, err, dump)
		}
		parseDump(bytes.NewReader(dump), reached)
	}
	return nil
}

// parseDump adds both ends of every "from -> to" edge to reached,
// without the linker's trailing annotations such as <UsedInIface>.
func parseDump(r io.Reader, reached map[string]bool) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		to, _, _ = strings.Cut(to, " ")
		reached[from] = true
		reached[to] = true
	}
}

// declared parses every non-test .go file under root outside main
// packages and skipDirs.
func declared(root, module string) ([]fn, error) {
	var fns []fn
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(path)
		if d.IsDir() {
			if skipDirs[rel] || rel != "." && strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if file.Name.Name == "main" {
			return nil
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(rel)); dir != "." {
			pkg += "/" + dir
		}
		fns = append(fns, funcsIn(fset, file, pkg)...)
		return nil
	})
	return fns, err
}

// funcsIn maps each non-generic function with a body in file to its
// linker symbol: pkg.F, pkg.T.M or pkg.(*T).M. init functions and
// blank names are left out: the linker numbers or drops them.
func funcsIn(fset *token.FileSet, file *ast.File, pkg string) []fn {
	var fns []fn
	for _, decl := range file.Decls {
		d, ok := decl.(*ast.FuncDecl)
		if !ok || d.Body == nil || d.Type.TypeParams != nil || d.Name.Name == "init" || d.Name.Name == "_" {
			continue
		}
		sym := pkg + "." + d.Name.Name
		if d.Recv != nil {
			typ := d.Recv.List[0].Type
			star, ptr := typ.(*ast.StarExpr)
			if ptr {
				typ = star.X
			}
			id, ok := typ.(*ast.Ident)
			if !ok { // a generic receiver, T[P]
				continue
			}
			if ptr {
				sym = pkg + ".(*" + id.Name + ")." + d.Name.Name
			} else {
				sym = pkg + "." + id.Name + "." + d.Name.Name
			}
		}
		start, end := fset.Position(d.Pos()), fset.Position(d.End())
		fns = append(fns, fn{Sym: sym, Pkg: pkg, File: filepath.ToSlash(start.Filename), Line: start.Line, Lines: end.Line - start.Line + 1})
	}
	return fns
}

// isReached reports whether the dump names sym. A value method T.M
// also counts when only its pointer wrapper (*T).M is named.
func isReached(sym string, reached map[string]bool) bool {
	if reached[sym] {
		return true
	}
	i := strings.LastIndex(sym, ".")
	j := strings.LastIndex(sym[:i], ".")
	if j < 0 || strings.ContainsAny(sym[j+1:i], "/(") { // not a value method
		return false
	}
	return reached[sym[:j]+".(*"+sym[j+1:i]+")"+sym[i:]]
}

func unreached(fns []fn, reached map[string]bool) []fn {
	var out []fn
	for _, f := range fns {
		if !isReached(f.Sym, reached) {
			out = append(out, f)
		}
	}
	return out
}

// readAllowlist reads one "symbol reason" entry per line; blank lines
// and lines starting with # are comments. An entry without a reason is
// an error.
func readAllowlist(r io.Reader) (map[string]string, error) {
	allow := map[string]string{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			return nil, fmt.Errorf("line %d: %s has no reason", n, sym)
		}
		allow[sym] = reason
	}
	return allow, sc.Err()
}

// report prints every unreached function, marking allowlisted ones, then
// per-package line totals and allowlist entries that name no unreached
// function. It returns how many unreached functions are not allowlisted
// plus how many entries are stale.
func report(w io.Writer, fns []fn, allow map[string]string) int {
	sort.Slice(fns, func(i, j int) bool {
		if fns[i].File != fns[j].File {
			return fns[i].File < fns[j].File
		}
		return fns[i].Line < fns[j].Line
	})
	bad := 0
	seen := map[string]bool{}
	total := map[string]int{}
	var pkgs []string
	for _, f := range fns {
		mark := "UNREACHED"
		if _, ok := allow[f.Sym]; ok {
			mark, seen[f.Sym] = "allowed", true
		} else {
			bad++
		}
		fmt.Fprintf(w, "%-9s %s:%d\t%d lines\t%s\n", mark, f.File, f.Line, f.Lines, f.Sym)
		if _, ok := total[f.Pkg]; !ok {
			pkgs = append(pkgs, f.Pkg)
		}
		total[f.Pkg] += f.Lines
	}
	sort.Strings(pkgs)
	sum := 0
	for _, p := range pkgs {
		fmt.Fprintf(w, "%6d  %s\n", total[p], p)
		sum += total[p]
	}
	fmt.Fprintf(w, "%6d  total lines in %d unreached functions, %d not allowlisted\n", sum, len(fns), bad)
	var stale []string
	for sym := range allow {
		if !seen[sym] {
			stale = append(stale, sym)
		}
	}
	sort.Strings(stale)
	for _, sym := range stale {
		fmt.Fprintf(w, "stale allowlist entry (reached or gone): %s\n", sym)
	}
	return bad + len(stale)
}
