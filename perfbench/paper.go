package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stack"
)

// paperSetups is how many times a paper-eval run sets up; setup_s is their
// median.
const paperSetups = 3

// artifacts is one regeneration of the `experiments all` artifact set:
// Figures 1 and 4-9 plus the Section 6 validation table, in the order and
// form cmd/experiments prints them.
type artifacts struct {
	text       []byte
	validation []exp.ValidationRow
	fig4       []exp.Figure4Row
	fig5       []stack.Bar
}

// regenerate produces the artifact set on e.
func regenerate(ctx context.Context, e *exp.Engine) (artifacts, error) {
	var a artifacts
	var buf bytes.Buffer
	curves, err := exp.Figure1(ctx, e)
	if err != nil {
		return a, err
	}
	buf.WriteString(exp.FormatCurves(curves))
	if a.validation, err = exp.Validation(ctx, e); err != nil {
		return a, err
	}
	buf.WriteString(exp.FormatValidation(a.validation))
	if a.fig4, err = exp.Figure4(ctx, e); err != nil {
		return a, err
	}
	buf.WriteString(exp.FormatFigure4(a.fig4))
	if a.fig5, err = exp.Figure5(ctx, e); err != nil {
		return a, err
	}
	buf.WriteString(stack.Table(a.fig5))
	if err := exp.WriteStacksCSV(&buf, a.fig5); err != nil {
		return a, err
	}
	f6, err := exp.Figure6(ctx, e)
	if err != nil {
		return a, err
	}
	buf.WriteString(exp.FormatFigure6(f6))
	f7, err := exp.Figure7(ctx, e)
	if err != nil {
		return a, err
	}
	buf.WriteString(exp.FormatFigure7(f7))
	f8, err := exp.Figure8(ctx, e)
	if err != nil {
		return a, err
	}
	buf.WriteString(exp.FormatInterference(f8))
	f9, err := exp.Figure9(ctx, e)
	if err != nil {
		return a, err
	}
	buf.WriteString(exp.FormatInterference(f9))
	a.text = buf.Bytes()
	return a, nil
}

// runLog records every simulation an engine executes, through
// exp.WithRunHook.
type runLog struct {
	mu   sync.Mutex
	runs map[runKey]int
}

// runKey is what the run hook reports about one simulation.
type runKey struct {
	kind, bench    string
	threads, cores int
}

func newRunLog() *runLog { return &runLog{runs: make(map[runKey]int)} }

func (l *runLog) hook(kind, bench string, threads, cores int) {
	l.mu.Lock()
	l.runs[runKey{kind, bench, threads, cores}]++
	l.mu.Unlock()
}

// total counts the logged simulations of one kind.
func (l *runLog) total(kind string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for k, c := range l.runs {
		if k.kind == kind {
			n += c
		}
	}
	return n
}

// sameAs reports whether two logs hold the same simulations.
func (l *runLog) sameAs(o *runLog) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(l.runs) != len(o.runs) {
		return false
	}
	for k, c := range l.runs {
		if o.runs[k] != c {
			return false
		}
	}
	return true
}

// checkArtifacts runs the output checks that need no stored copy of an
// earlier output: Formula (4)/(5) on every Figure 5 stack row, and the
// Section 6 table recomputed from the Figure 4 rows.
func checkArtifacts(a artifacts) error {
	if err := checkRows(stack.Rows(a.fig5)); err != nil {
		return fmt.Errorf("figure 5: %w", err)
	}
	sum := map[int]float64{}
	count := map[int]int{}
	for _, r := range a.fig4 {
		sum[r.Threads] += math.Abs(r.Estimated-r.Actual) / float64(r.Threads)
		count[r.Threads]++
	}
	if len(a.validation) != len(count) {
		return fmt.Errorf("section 6: %d validation rows for %d thread counts in Figure 4",
			len(a.validation), len(count))
	}
	for _, v := range a.validation {
		if count[v.Threads] == 0 {
			return fmt.Errorf("section 6: no Figure 4 rows at %d threads", v.Threads)
		}
		mean := 100 * sum[v.Threads] / float64(count[v.Threads])
		if math.Abs(mean-v.MeanAbsErrPct) > 1e-9*math.Max(1, mean) {
			return fmt.Errorf("section 6: mean |S^-S|/N at %d threads is %.12f%% from Figure 4, %.12f%% in the table",
				v.Threads, mean, v.MeanAbsErrPct)
		}
	}
	return nil
}

// runPaperEval regenerates the artifact set on a fresh engine with nproc
// workers, repeatedly, for the measured time.
func runPaperEval(o runOpts) (*outcome, error) {
	ctx := context.Background()
	workers := runtime.NumCPU()
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}

	// Set-up: a fresh engine regenerating Figure 1 fills the simulator's
	// machine pools and grows the heap, the lazy work later engines reuse.
	var setups setupTimes
	for i := 0; i < paperSetups; i++ {
		s := startSetup()
		if _, err := exp.Figure1(ctx, exp.NewEngine(sim.Default(), exp.WithWorkers(workers))); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups.add(s)
	}
	out.e2e["setup_s"] = setups.report()

	var (
		lat       []float64
		first     artifacts
		firstLog  *runLog
		last      *exp.Engine
		lastLog   *runLog
		simOps    uint64
		statsLast exp.Stats
	)
	m0, cpu0 := memSnapshot(), cpuTime()
	start := time.Now()
	for len(lat) == 0 || time.Since(start) < o.seconds {
		log := newRunLog()
		e := exp.NewEngine(sim.Default(), exp.WithWorkers(workers), exp.WithRunHook(log.hook))
		t0 := time.Now()
		a, err := regenerate(ctx, e)
		lat = append(lat, ms(time.Since(t0)))
		out.attempted++
		if err != nil {
			return nil, fmt.Errorf("regeneration %d: %w", len(lat), err)
		}
		st := e.Stats()
		simOps += st.SimulatedOps
		if out.checkErr == nil {
			out.checkErr = checkRegeneration(a, first, log, firstLog, st)
		}
		if first.text == nil {
			first, firstLog = a, log
		}
		last, lastLog, statsLast = e, log, st
	}
	wall := time.Since(start)
	m1, cpu := memSnapshot(), cpuTime()-cpu0
	// Too few regenerations for a tail: tail_ms repeats the median.
	out.e2e["p50_ms"] = median(lat)
	out.e2e["tail_ms"] = out.e2e["p50_ms"]
	out.e2e["ops_per_cpu_s"] = float64(len(lat)) / cpu.Seconds()
	fmt.Printf("regenerations (ms): %.6g\n", lat)
	fmt.Printf("paper-eval: %d regenerations, eval_s median %.4f, artifact set %d bytes, sha256 %x\n",
		len(lat), median(lat)/1000, len(first.text), sha256.Sum256(first.text))

	// Exactly-once, second half: every cell of the set is memoized, so a
	// repeat on the last engine simulates nothing.
	before := statsLast.CellRuns + statsLast.SeqRuns
	if _, err := regenerate(ctx, last); err != nil {
		return nil, fmt.Errorf("repeat on a warm engine: %w", err)
	}
	if st := last.Stats(); st.CellRuns+st.SeqRuns != before && out.checkErr == nil {
		out.checkErr = fmt.Errorf("exactly-once: a repeat on a warm engine ran %d more simulations",
			st.CellRuns+st.SeqRuns-before)
	}

	if o.trace {
		n := float64(len(lat))
		l := out.layer
		l["sim.ops"] = float64(simOps) / n
		l["sim.ops_per_s"] = float64(simOps) / wall.Seconds()
		l["exp.cell_runs"] = float64(statsLast.CellRuns)
		l["exp.seq_runs"] = float64(statsLast.SeqRuns)
		l["exp.cell_hits"] = float64(statsLast.CellHits)
		l["exp.seq_hits"] = float64(statsLast.SeqHits)
		l["exp.memo_hit_ratio"] = hitRatio(statsLast)
		l["runtime.alloc_bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / n
		l["runtime.gc_cycles"] = float64(m1.NumGC-m0.NumGC) / n
		counts, err := paperCounts(ctx, last, lastLog, statsLast.SimulatedOps)
		if err != nil {
			return nil, err
		}
		counts.cpuSeconds = cpu.Seconds() / n
		if err := traceLayers(l, counts, sim.ModeExact); err != nil {
			return nil, err
		}
	}
	out.e2e["retained_heap_mb"] = heapMB()
	runtime.KeepAlive(last)
	if o.trace {
		tracedE2E(out)
	}
	return out, nil
}

// checkRegeneration checks one regeneration against the artifact checks,
// the first regeneration of the run (byte-identical text, the same
// simulations) and its own engine's counters (every executed simulation
// was logged by the run hook).
func checkRegeneration(a, first artifacts, log, firstLog *runLog, st exp.Stats) error {
	if err := checkArtifacts(a); err != nil {
		return err
	}
	if got := log.total("cell"); got != st.CellRuns {
		return fmt.Errorf("exactly-once: the run hook saw %d cell simulations, the engine counted %d", got, st.CellRuns)
	}
	if got := log.total("seq"); got != st.SeqRuns {
		return fmt.Errorf("exactly-once: the run hook saw %d sequential simulations, the engine counted %d", got, st.SeqRuns)
	}
	if first.text == nil {
		return nil
	}
	if !bytes.Equal(a.text, first.text) {
		return fmt.Errorf("repeat regeneration differs from the first (%d vs %d bytes)", len(a.text), len(first.text))
	}
	if !log.sameAs(firstLog) {
		return fmt.Errorf("exactly-once: a repeat regeneration ran a different set of simulations")
	}
	return nil
}

// hitRatio is the share of engine requests the memo answered.
func hitRatio(st exp.Stats) float64 {
	hits := float64(st.CellHits + st.SeqHits)
	all := hits + float64(st.CellRuns+st.SeqRuns)
	if all == 0 {
		return 0
	}
	return hits / all
}
