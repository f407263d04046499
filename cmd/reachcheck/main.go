// Command reachcheck lists the functions of the internal packages that no
// binary contains. It builds every main package under cmd/ and examples/
// and the perfbench module with inlining off (-gcflags=all=-l), so every
// called function keeps a symbol, reads their symbols with go tool nm, and
// compares them with the functions declared outside _test.go files under
// internal/, except internal/exact (the property tests' oracles). Run it
// from the repository root; it exits non-zero listing every unreached
// function the allowlist does not name.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// allowed names each unreached function a test keeps as a reference
// implementation, with the test that uses it.
var allowed = map[string]string{
	"graph.(*CSR).GenericKernel": "TestKernelStepBitIdentity (internal/graph)",
}

func main() {
	problems, err := check()
	if err != nil {
		fmt.Fprintln(os.Stderr, "reachcheck:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "reachcheck: %d unreached internal function(s)\n", len(problems))
		os.Exit(1)
	}
}

// check returns one line per unreached, unallowed function, sorted.
func check() ([]string, error) {
	reached, err := linked()
	if err != nil {
		return nil, err
	}
	var problems []string
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		dir := filepath.ToSlash(filepath.Dir(path))
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") ||
			strings.HasSuffix(path, "_test.go") || dir == "internal/exact" {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			name, alt := symbols(strings.TrimPrefix(dir, "internal/"), fd)
			if !reached[name] && !reached[alt] && allowed[name] == "" {
				problems = append(problems, fmt.Sprintf("%s:%d: %s is in no binary",
					path, fset.Position(fd.Pos()).Line, name))
			}
		}
		return nil
	})
	sort.Strings(problems)
	return problems, err
}

// symbols returns the linker name of a declaration with the module prefix
// dropped, pkg.F or pkg.(*T).M or pkg.T.M as declared, and for a method
// the name under the other receiver form, which a wrapper may carry.
func symbols(pkg string, fd *ast.FuncDecl) (name, alt string) {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name, ""
	}
	recv := normalize(types.ExprString(fd.Recv.List[0].Type))
	byVal := fmt.Sprintf("%s.%s.%s", pkg, strings.TrimPrefix(recv, "*"), fd.Name.Name)
	byPtr := fmt.Sprintf("%s.(*%s).%s", pkg, strings.TrimPrefix(recv, "*"), fd.Name.Name)
	if strings.HasPrefix(recv, "*") {
		return byPtr, byVal
	}
	return byVal, byPtr
}

// shape matches a generic instance's type arguments, and closure the
// suffix of a closure, go or defer wrapper, or method value.
var (
	shape   = regexp.MustCompile(`\[[^\[\]]*\]`)
	closure = regexp.MustCompile(`(\.(func|gowrap|deferwrap)\d+.*|-fm)$`)
)

// normalize maps a text symbol to the function that declares it.
func normalize(sym string) string {
	for prev := ""; prev != sym; {
		prev, sym = sym, shape.ReplaceAllString(sym, "")
	}
	return closure.ReplaceAllString(sym, "")
}

// linked builds every binary and returns the internal functions their
// symbol tables hold, with the module prefix dropped.
func linked() (map[string]bool, error) {
	dir, err := os.MkdirTemp("", "reachcheck")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	builds := []*exec.Cmd{
		exec.Command("go", "build", "-gcflags=all=-l", "-o", dir+"/", "./cmd/...", "./examples/..."),
		exec.Command("go", "build", "-gcflags=all=-l", "-o", dir+"/", "."),
	}
	builds[1].Dir = "perfbench"
	for _, c := range builds {
		if out, err := c.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("%s: %v\n%s", strings.Join(c.Args, " "), err, out)
		}
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	reached := map[string]bool{}
	for _, b := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, b.Name())).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %v", b.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if _, sym, ok := strings.Cut(line, " T dispersion/internal/"); ok {
				reached[normalize(sym)] = true
			}
		}
	}
	return reached, nil
}
