package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkSpec is the part of BENCHMARK.json the steadiness mode reads:
// each end-to-end metric's bound and direction.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runResult is the last line a run prints.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runSteady runs two sets of n untraced runs of one workload, each run a
// child process with its own seed, and prints for every end-to-end metric
// both sets' quartiles, their spread (Q3-Q1 over the median) and the
// change of the second median against the first, next to the metric's
// bound from BENCHMARK.json in the working directory. It returns 0 when
// every spread except setup_s's stays within its bound, no median worsens
// by more than its bound, every run was correct and both sets failed the
// same share of their operations.
func runSteady(workload string, n, seconds int, seed uint64) int {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: steadiness mode runs from the repository root: %v\n", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: BENCHMARK.json: %v\n", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	ok := true
	var sets [2]map[string][]float64
	var failShare [2][2]int // failed, attempted
	for s := range sets {
		sets[s] = map[string][]float64{}
		for i := 0; i < n; i++ {
			runSeed := seed + uint64(s*n+i)
			cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(runSeed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			outb, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: run with seed %d: %v\n", runSeed, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(outb), []byte("\n"))
			var r runResult
			if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: run with seed %d: bad result line: %v\n", runSeed, err)
				return 1
			}
			ok = ok && r.Correct
			failShare[s][0] += r.Failed
			failShare[s][1] += r.Attempted
			for name, v := range r.Metrics {
				sets[s][name] = append(sets[s][name], v.Value)
			}
			fmt.Printf("set %d run %d seed %d: correct=%v attempted=%d failed=%d\n",
				s+1, i+1, runSeed, r.Correct, r.Attempted, r.Failed)
		}
	}
	fmt.Printf("\n%s, %d runs a set, %d s a run\n", workload, n, seconds)
	fmt.Printf("%-18s %5s %12s %12s %12s %7s %12s %12s %12s %7s %8s %6s\n", "metric", "bound",
		"Q1 (1)", "median (1)", "Q3 (1)", "spread", "Q1 (2)", "median (2)", "Q3 (2)", "spread", "change", "")
	for _, m := range spec.EndToEnd {
		var q [2][3]float64
		var spread [2]float64
		for s := range sets {
			q[s][0], q[s][1], q[s][2] = quartiles(sets[s][m.Name])
			spread[s] = (q[s][2] - q[s][0]) / q[s][1]
		}
		change := (q[1][1] - q[0][1]) / q[0][1]
		worse := change
		if m.Better == "higher" {
			worse = -change
		}
		verdict := "ok"
		if (m.Name != "setup_s" && (spread[0] > m.Bound || spread[1] > m.Bound)) || worse > m.Bound {
			verdict, ok = "FAIL", false
		}
		fmt.Printf("%-18s %5.2f %12.6g %12.6g %12.6g %6.2f%% %12.6g %12.6g %12.6g %6.2f%% %+7.2f%% %6s\n",
			m.Name, m.Bound, q[0][0], q[0][1], q[0][2], 100*spread[0],
			q[1][0], q[1][1], q[1][2], 100*spread[1], 100*change, verdict)
	}
	fmt.Printf("failed operations: set 1 %d of %d, set 2 %d of %d\n",
		failShare[0][0], failShare[0][1], failShare[1][0], failShare[1][1])
	if failShare[0][0]*failShare[1][1] != failShare[1][0]*failShare[0][1] {
		ok = false
	}
	if !ok {
		return 1
	}
	return 0
}
