// Command perfbench is the repository's end-to-end benchmark. It drives the
// program only through its public Go API — exp.Engine, service.Server,
// fleet.Wrap, sim.Run/RunSequential and each layer's exported calls — in
// one process, and checks every answer it measures.
//
// Usage (from the repository root):
//
//	perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	perfbench/run.sh --steady 10 --workload NAME --seconds S
//
// Workloads: paper-eval (regenerate the paper's artifact set), serve-cold
// (cold fast-mode analyze requests through a two-node in-process fleet)
// and serve-warm (cache-hit requests through the same fleet). The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. Lines before it describe the host
// and the run. --steady N runs two sets of N runs of one workload as child
// processes and prints, per end-to-end metric, both sets' medians and
// quartiles against the metric's bound. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// runOpts are one run's arguments.
type runOpts struct {
	seed    uint64
	seconds time.Duration
	trace   bool
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	// checkErr is the first failed output check; nil when all passed.
	checkErr error
	// e2e holds the end-to-end metrics by name; layer the per-layer ones
	// (traced runs only).
	e2e   map[string]float64
	layer map[string]float64
}

// metric names a reported value and its unit.
type metric struct{ name, unit string }

// e2eMetrics are printed with --trace 0, by every workload. An operation
// is one regeneration of the artifact set on paper-eval and one request on
// the serve workloads. Throughput is counted per CPU-second the process
// got, not per wall second: the shared host steals 10-25% of the CPU time
// in bursts, which moved wall-clock throughput by up to 30% between runs
// while CPU-normalized throughput moved by about 5%.
var e2eMetrics = []metric{
	{"setup_s", "s"},           // median of the run's set-ups
	{"p50_ms", "ms"},           // median operation latency
	{"tail_ms", "ms"},          // p90 on serve-cold, p99 on serve-warm
	{"ops_per_cpu_s", "1/s"},   // operations per CPU-second of the process
	{"retained_heap_mb", "MB"}, // live heap after the run, after a GC
}

// layerMetrics are printed with --trace 1, by every workload; a layer a
// workload does not exercise reads 0 there.
var layerMetrics = []metric{
	{"workload.gen_ns_per_op", "ns"},
	{"workload.parse_us", "us"},
	{"workload.fingerprint_us", "us"},
	{"workload.byname_us", "us"},
	{"cache.access_ns", "ns"},
	{"cache.accesses", "count"},
	{"cache.llc_misses", "count"},
	{"atd.access_ns", "ns"},
	{"atd.accesses", "count"},
	{"mem.access_ns", "ns"},
	{"mem.accesses", "count"},
	{"syncprim.op_ns", "ns"},
	{"syncprim.ops", "count"},
	{"sched.schedule_ns", "ns"},
	{"sched.ctx_switches", "count"},
	{"sim.exact_ns_per_op", "ns"},
	{"sim.fast_ns_per_op", "ns"},
	{"sim.seq_ms", "ms"},
	{"sim.par_ms", "ms"},
	{"sim.ops", "count"},
	{"sim.ops_per_s", "1/s"},
	{"core.estimate_us", "us"},
	{"exp.cell_runs", "count"},
	{"exp.seq_runs", "count"},
	{"exp.cell_hits", "count"},
	{"exp.seq_hits", "count"},
	{"exp.memo_hit_ratio", "ratio"},
	{"stack.encode_us.json", "us"},
	{"stack.encode_us.csv", "us"},
	{"stack.encode_us.svg", "us"},
	{"stack.encode_us.text", "us"},
	{"scaling.encode_us", "us"},
	{"whatif.encode_us", "us"},
	{"stack.response_bytes", "bytes"},
	{"service.handler_us", "us"},
	{"fleet.route_us", "us"},
	{"fleet.hop_us", "us"},
	{"fleet.home_hit_us", "us"},
	{"fleet.peer_hit_us", "us"},
	{"fleet.forwarded", "count"},
	{"fleet.peer_hits", "count"},
	{"fleet.peer_hit_ratio", "ratio"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"replay.cache_share_pct", "%"},
	{"replay.atd_share_pct", "%"},
	{"replay.mem_share_pct", "%"},
	{"replay.workload_share_pct", "%"},
	{"replay.sync_share_pct", "%"},
	{"replay.unexplained_pct", "%"},
	{"traced.setup_s", "s"},
	{"traced.p50_ms", "ms"},
	{"traced.tail_ms", "ms"},
	{"traced.ops_per_cpu_s", "1/s"},
	{"traced.retained_heap_mb", "MB"},
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(runOpts) (*outcome, error){
	"paper-eval": runPaperEval,
	"serve-cold": runServeCold,
	"serve-warm": runServeWarm,
}

// gcPercent is the GOGC every run pins. The serve workloads keep a live
// heap of about 1 MB, so at the default of 100 the collector runs at its
// 4 MB floor, over a hundred times a second on serve-warm, and its
// interplay with the host's scheduling swung warm throughput by 2x between
// runs; at 400 the floor is 16 MB. Allocation still costs: see the
// runtime.* layer metrics.
const gcPercent = 400

func main() {
	name := flag.String("workload", "", "workload: paper-eval, serve-cold or serve-warm")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	steady := flag.Int("steady", 0, "run two sets of N runs and report their medians and quartiles")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *steady > 0 {
		os.Exit(runSteady(*name, *steady, *seconds, *seed))
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	debug.SetGCPercent(gcPercent)
	fmt.Printf("host: cpu=%q nproc=%d GOMAXPROCS=%d GOGC=%d go=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), gcPercent, runtime.Version())
	fmt.Printf("run: workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *traced)

	var prof *os.File
	if *cpuProfile != "" {
		var err error
		if prof, err = os.Create(*cpuProfile); err == nil {
			err = pprof.StartCPUProfile(prof)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
			os.Exit(1)
		}
	}
	out, err := run(runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1})
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", cerr)
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Printf("operations: attempted=%d failed=%d\n", out.attempted, out.failed)
	if out.checkErr != nil {
		fmt.Printf("CHECK FAILED: %v\n", out.checkErr)
	}
	want, values := e2eMetrics, out.e2e
	if *traced == 1 {
		want, values = layerMetrics, out.layer
	}
	for _, m := range e2eMetrics {
		fmt.Printf("e2e %-18s %14.6g %s\n", m.name, out.e2e[m.name], m.unit)
	}
	if *traced == 1 {
		for _, m := range layerMetrics {
			fmt.Printf("layer %-28s %14.6g %s\n", m.name, out.layer[m.name], m.unit)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	for _, m := range want {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.checkErr == nil, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding the result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuModel reads the host CPU model, "unknown" where it is not available.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// heapMB is the live heap after full collections, in MB (10^6 bytes). The
// second collection empties the sync.Pool victim caches (the simulator's
// machine pools), which the first only demotes, so the figure does not
// depend on when the last collection before it ran.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// memSnapshot reads the allocation and GC counters for the runtime layer
// metrics.
func memSnapshot() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// setupTimes collects a run's set-ups. setup_s is their median CPU time
// (user plus system), which leaves out the time the shared host steals;
// the wall times are printed beside it.
type setupTimes struct{ cpu, wall []float64 }

type setupStart struct {
	cpu  time.Duration
	wall time.Time
}

func startSetup() setupStart { return setupStart{cpuTime(), time.Now()} }

func (st *setupTimes) add(s setupStart) {
	st.cpu = append(st.cpu, (cpuTime() - s.cpu).Seconds())
	st.wall = append(st.wall, time.Since(s.wall).Seconds())
}

// report prints the set-ups and returns the median CPU seconds.
func (st *setupTimes) report() float64 {
	fmt.Printf("set-ups: cpu %.4g s, wall %.4g s\n", st.cpu, st.wall)
	return median(st.cpu)
}
