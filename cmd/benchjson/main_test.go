package main

import (
	"strings"
	"testing"
)

func TestParseKeepsNumericSuffix(t *testing.T) {
	rep, err := parse(strings.NewReader(`goos: linux
BenchmarkE2_UniformContainment/layers-2         	    1000	   1200 ns/op	  64 B/op	   2 allocs/op
BenchmarkE2_UniformContainment/layers-8         	     100	  12000 ns/op	 640 B/op	  20 allocs/op
PASS
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(rep.Benchmarks))
	}
	r := rep.Benchmarks[1]
	if r.Name != "BenchmarkE2_UniformContainment/layers-8" || r.Runs != 100 || r.NsPerOp != 12000 || r.BytesPerOp != 640 || r.AllocsPerOp != 20 {
		t.Fatalf("parsed %+v", r)
	}
}

func TestParseRejectsDuplicateName(t *testing.T) {
	_, err := parse(strings.NewReader(`BenchmarkX/k-4 	 10	 100 ns/op
BenchmarkX/k-4 	 10	 110 ns/op
`))
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v, want a duplicate-name error", err)
	}
}
