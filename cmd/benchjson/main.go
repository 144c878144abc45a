// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON report, so the performance trajectory of the eval/chase hot
// paths can be tracked as a checked-in artifact (see `make bench`, which
// writes BENCH_eval.json).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Report is the full bench run.
type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
}

// parse reads `go test -bench` output into a report. Names are kept as
// printed — run the benchmarks with -cpu=1, where go test appends no
// GOMAXPROCS suffix, so a trailing -<int> is part of the name (layers-8) —
// and a name seen twice is an error: two results under one name cannot be
// told apart in the trajectory.
func parse(r io.Reader) (Report, error) {
	var rep Report
	seen := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				if seen[r.Name] {
					return rep, fmt.Errorf("duplicate benchmark name %q", r.Name)
				}
				seen[r.Name] = true
				rep.Benchmarks = append(rep.Benchmarks, r)
			}
		}
	}
	return rep, sc.Err()
}

// parseLine parses one `BenchmarkX  100  123 ns/op  45 B/op  6 allocs/op`
// line.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Runs: runs}
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			r.NsPerOp, _ = strconv.ParseFloat(val, 64)
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
		}
	}
	return r, true
}
