package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// heldOutSeed is the seed kept out of every tuning and claim-making run.
// A later change that claims a gain must show it on this seed too.
const heldOutSeed = 104729

// steadiness runs every workload k times with seed and k times with the
// held-out seed, untraced, plus one traced run with seed, each in a fresh
// process. For every end-to-end metric it prints the median, the quartiles
// and the run-to-run spread ((q3-q1)/median) against the metric's bound
// from BENCHMARK.json, and the tracing overhead: the traced run's value
// against the untraced median.
func steadiness(k int, seed int64, seconds float64) error {
	if k < 2 {
		return fmt.Errorf("--report needs at least 2 runs")
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating own executable: %w", err)
	}
	runOnce := func(wl string, seed int64, trace int) (map[string]float64, error) {
		cmd := exec.Command(exe, "--workload", wl, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", strconv.Itoa(trace))
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", wl, seed, err)
		}
		return parseE2E(stdout.Bytes())
	}
	ok := true
	for _, wl := range workloads {
		for _, s := range []int64{seed, heldOutSeed} {
			values := make(map[string][]float64)
			for i := 0; i < k; i++ {
				m, err := runOnce(wl.name, s, 0)
				if err != nil {
					return err
				}
				for name, v := range m {
					values[name] = append(values[name], v)
				}
			}
			var tracedRun map[string]float64
			if s == seed {
				if tracedRun, err = runOnce(wl.name, s, 1); err != nil {
					return err
				}
			}
			fmt.Printf("\n%s, seed %d, %d runs of %gs\n", wl.name, s, k, seconds)
			fmt.Printf("  %-16s %12s %12s %12s %8s %8s %10s\n", "metric", "median", "q1", "q3", "spread", "bound", "traced")
			for _, d := range endToEnd {
				xs := values[d.name]
				med := median(xs)
				q1, q3 := quartiles(xs)
				spread := ratio(q3-q1, med)
				flag := ""
				if d.name != "setup_s" && spread > bounds[d.name]/3 {
					flag, ok = "  > bound/3", false
				}
				over := ""
				if tracedRun != nil {
					over = fmt.Sprintf("%+9.1f%%", 100*ratio(tracedRun[d.name]-med, med))
				}
				fmt.Printf("  %-16s %12.4f %12.4f %12.4f %7.1f%% %7.1f%% %10s%s\n",
					d.name+" "+d.unit, med, q1, q3, 100*spread, 100*bounds[d.name], over, flag)
			}
		}
	}
	if !ok {
		return fmt.Errorf("some spreads exceed a third of their bound")
	}
	return nil
}

// readBounds reads each end-to-end metric's bound from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading bounds (run from the repository root): %w", err)
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	out := make(map[string]float64)
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// parseE2E extracts the end-to-end values from a run's "e2e:" line.
func parseE2E(stdout []byte) (map[string]float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "e2e: ")
		if !ok {
			continue
		}
		var m map[string]metricJSON
		if err := json.Unmarshal([]byte(rest), &m); err != nil {
			return nil, fmt.Errorf("decoding e2e line: %w", err)
		}
		out := make(map[string]float64, len(m))
		for k, v := range m {
			out[k] = v.Value
		}
		return out, nil
	}
	return nil, fmt.Errorf("run printed no e2e line")
}
