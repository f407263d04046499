package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestNormalize(t *testing.T) {
	for sym, want := range map[string]string{
		"graph.(*CSR).Step": "graph.(*CSR).Step",
		"walk.StreamState[go.shape.*uint8,go.shape.struct {}]":       "walk.StreamState",
		"walk.StreamState[go.shape.*uint8,go.shape.struct {}].func1": "walk.StreamState",
		"walk.F[go.shape.[]int,go.shape.map[int]string]":             "walk.F",
		"core.(*Scratch).walk.func2.1":                               "core.(*Scratch).walk",
		"server.(*Manager).run.gowrap1":                              "server.(*Manager).run",
		"agg.(*Set[go.shape.int]).Add":                               "agg.(*Set).Add",
		"graph.csrKernel.Step-fm":                                    "graph.csrKernel.Step",
	} {
		if got := normalize(sym); got != want {
			t.Errorf("normalize(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestSymbols(t *testing.T) {
	src := `package p
func F() {}
func (s *S) M() {}
func (s S) V() {}
func (s *G[T]) P() {}
func (m Map[K, V]) Get() {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{
		{"p.F", ""},
		{"p.(*S).M", "p.S.M"},
		{"p.S.V", "p.(*S).V"},
		{"p.(*G).P", "p.G.P"},
		{"p.Map.Get", "p.(*Map).Get"},
	}
	for i, decl := range f.Decls {
		name, alt := symbols("p", decl.(*ast.FuncDecl))
		if name != want[i][0] || alt != want[i][1] {
			t.Errorf("decl %d: symbols = (%q, %q), want %v", i, name, alt, want[i])
		}
	}
}
