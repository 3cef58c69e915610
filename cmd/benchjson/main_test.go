package main

import (
	"bufio"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: mlid
cpu: shared
BenchmarkFigUniform/4-port_4-tree         	       1	  93240227 ns/op	         1.037 mlid_over_slid	13652800 B/op	    4812 allocs/op
BenchmarkFigUniform/32-port_2-tree        	       1	1242818469 ns/op	         1.256 mlid_over_slid	74104928 B/op	   49277 allocs/op
BenchmarkFigUniform/32-port_2-tree-8      	       1	 431818469 ns/op	74104928 B/op	   49277 allocs/op
PASS
ok  	mlid	3.781s
`

func TestParse(t *testing.T) {
	doc, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.Package != "mlid" || doc.CPU != "shared" {
		t.Fatalf("header: %+v", doc)
	}
	if len(doc.Results) != 3 {
		t.Fatalf("%d results, want 3", len(doc.Results))
	}
	r := doc.Results[1]
	if r.Name != "BenchmarkFigUniform/32-port_2-tree" || r.Iterations != 1 {
		t.Fatalf("result: %+v", r)
	}
	if r.NsPerOp != 1242818469 || r.BytesPerOp != 74104928 || r.AllocsPerOp != 49277 {
		t.Fatalf("measurements: %+v", r)
	}
	if r.Metrics["mlid_over_slid"] != 1.256 {
		t.Fatalf("custom metric: %+v", r.Metrics)
	}
	// GOMAXPROCS defaults to 1 without the "-N" suffix ("-tree" is not one).
	if r.GOMAXPROCS != 1 {
		t.Fatalf("parallelism of %q: %+v", r.Name, r)
	}
	if p := doc.Results[2]; p.GOMAXPROCS != 8 {
		t.Fatalf("parallelism of %q: %+v", p.Name, p)
	}
}

// twoPackages is a `go test -bench` stream over two packages: go test prints
// one header block per package.
const twoPackages = `goos: linux
goarch: amd64
pkg: mlid
cpu: shared
BenchmarkSubnetConfigure/8-port_4-tree/MLID 	       1	   5000000 ns/op
PASS
ok  	mlid	1.0s
goos: linux
goarch: amd64
pkg: mlid/internal/sim
cpu: shared
BenchmarkEngineSchedule/generation 	10000000	        33.0 ns/op	        33.0 ns/event
BenchmarkRunSmall 	     100	  10562880 ns/op
PASS
ok  	mlid/internal/sim	2.0s
`

func TestParseTwoPackages(t *testing.T) {
	doc, err := parse(bufio.NewScanner(strings.NewReader(twoPackages)))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ name, pkg string }{
		{"BenchmarkSubnetConfigure/8-port_4-tree/MLID", "mlid"},
		{"BenchmarkEngineSchedule/generation", "mlid/internal/sim"},
		{"BenchmarkRunSmall", "mlid/internal/sim"},
	}
	if len(doc.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(doc.Results), len(want))
	}
	for i, w := range want {
		if r := doc.Results[i]; r.Name != w.name || r.Package != w.pkg {
			t.Errorf("result %d: %s in %q, want %s in %q", i, r.Name, r.Package, w.name, w.pkg)
		}
	}
	if doc.Package != "" {
		t.Errorf("document package %q for a two-package stream, want none", doc.Package)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkX 1 ns/op",      // odd pair
		"BenchmarkX abc 5 ns/op",  // bad iteration count
		"BenchmarkX 1 fast ns/op", // bad measurement
	} {
		if _, err := parse(bufio.NewScanner(strings.NewReader(bad))); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestParseEmptyInput(t *testing.T) {
	doc, err := parse(bufio.NewScanner(strings.NewReader("PASS\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 0 {
		t.Fatalf("results from non-bench input: %+v", doc.Results)
	}
}
