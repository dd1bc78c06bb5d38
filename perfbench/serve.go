package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

const (
	// serveSetups is how many times a serve run builds (and, for
	// serve-warm, warms) a fresh fleet; setup_s is their median and the
	// measured loop uses the last one.
	serveSetups = 3
	// coldThreads is the thread count of every serve-cold request.
	coldThreads = 8
	// coldClients is serve-cold's client count (capped at nproc).
	coldClients = 2
	// identitySample is how many measured answers per run are compared
	// with a standalone node's.
	identitySample = 4
	// coldCacheCells bounds each serve-cold node's engine memo and
	// peer-response cache. Every run serves several times more cold
	// requests per node, so both caches are full and evicting by the end,
	// as on a long-running server under cold traffic, and the retained
	// heap does not grow with the number of requests a run got through.
	coldCacheCells = 128
	// coldCountSample is how many of the last serve-cold requests a traced
	// run reads back from the memo for the layer counts; it stays below
	// the cells one node's memo retains.
	coldCountSample = 100
	// coldWindow and warmWindow are the windows the measured time is cut
	// into: each window yields its own median, tail and rate, and the run
	// reports the median window, so a burst of interference from outside
	// the process that covers less than half the windows does not move
	// the result. A cold window holds about 300 requests, enough for a
	// p90 with 30 beyond it.
	coldWindow = 5 * time.Second
	warmWindow = 2 * time.Second
	// coldTailPct and warmTailPct are the tail percentiles: the highest of
	// p99 and p90 with at least ten requests beyond it in every window.
	coldTailPct = 90
	warmTailPct = 99
)

// windowMetrics fills p50_ms and tail_ms from the requests that completed
// within the measured time d, cut into windows of length w: each metric is
// the median over windows of the window's own value. Requests completing
// after d (finishing the last round) are left out.
func windowMetrics(m map[string]float64, all []served, start time.Time, d, w time.Duration, tail float64) {
	k := max(int(d/w), 1)
	w = d / time.Duration(k)
	lats := make([][]float64, k)
	for _, r := range all {
		if at := r.end.Sub(start); at < d {
			lats[at/w] = append(lats[at/w], ms(r.lat))
		}
	}
	var p50, tails, rates []float64
	fewest := len(all)
	for _, l := range lats {
		p50 = append(p50, median(l))
		tails = append(tails, percentile(l, tail))
		rates = append(rates, float64(len(l))/w.Seconds())
		fewest = min(fewest, len(l))
	}
	m["p50_ms"], m["tail_ms"] = median(p50), median(tails)
	fmt.Printf("windows: %d of %.1fs, p50_ms %.4g, tail_ms (p%.0f) %.4g, wall requests/s %.5g\n",
		k, w.Seconds(), p50, tail, tails, rates)
	if float64(fewest)*(100-tail)/100 < 10 {
		fmt.Printf("warning: a window of %d requests has fewer than ten beyond its p%.0f\n", fewest, tail)
	}
}

// closedLoop runs clients that each take the next request index, call do
// and take the next, until the measured time is up at a round boundary:
// every run serves whole rounds of the same mix. It returns the number of
// requests served and the loop's start.
func closedLoop(clients, round int, d time.Duration, do func(client, i int)) (int, time.Time) {
	var (
		mu   sync.Mutex
		next int
		done bool
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				if done || (next%round == 0 && time.Since(start) >= d) {
					done = true
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
	return next, start
}

// served is one measured request's record.
type served struct {
	i     int
	code  int
	body  []byte // kept by serve-cold only
	size  int
	lat   time.Duration
	end   time.Time
	spans span
}

// mix derives a request seed from the run seed and a request index
// (splitmix64), kept below 2^31 and non-zero.
func mix(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return 1 + z%(1<<31-1)
}

// coldSpec is serve-cold request i: the analogues rotated in registry
// order, each re-seeded so that it misses every cache.
func coldSpec(analogues []workload.Benchmark, seed uint64, i int) workload.Spec {
	s := analogues[i%len(analogues)].Spec
	s.Seed = mix(seed, i)
	return s
}

func coldCall(spec workload.Spec) (call, error) {
	body, err := json.Marshal(struct {
		Spec    workload.Spec `json:"spec"`
		Threads int           `json:"threads"`
	}{spec, coldThreads})
	if err != nil {
		return call{}, err
	}
	return call{method: http.MethodPost, target: "/v1/workloads/analyze?mode=fast", body: body}, nil
}

// runServeCold sends cold fast-mode analyze requests from two clients into
// the two-node fleet, alternating the entry node by request index.
func runServeCold(o runOpts) (*outcome, error) {
	workers := runtime.NumCPU()
	clients := min(coldClients, workers)
	analogues := workload.All()
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}

	// Set-up: build the fleet and send each node one cold request of its
	// own (seeds no measured request uses), which fills the simulator's
	// machine pools for the fast 8-core machine.
	var f *benchFleet
	var setups setupTimes
	for k := 0; k < serveSetups; k++ {
		s := startSetup()
		var err error
		if f, err = newFleet(workers, coldCacheCells, o.trace); err != nil {
			return nil, err
		}
		for n := range f.nodes {
			c, err := coldCall(coldSpec(analogues, ^o.seed, k*len(f.nodes)+n))
			if err != nil {
				return nil, err
			}
			if code, body, _ := serve(f.nodes[n].entry, c, nil); code != http.StatusOK {
				return nil, fmt.Errorf("set-up request: status %d: %s", code, body)
			}
		}
		setups.add(s)
	}
	out.e2e["setup_s"] = setups.report()

	before, err := f.fleetCounters()
	if err != nil {
		return nil, err
	}
	stats0 := f.engineStats()
	records := make([][]served, clients)
	m0, cpu0 := memSnapshot(), cpuTime()
	n, start := closedLoop(clients, len(analogues), o.seconds, func(client, i int) {
		c, err := coldCall(coldSpec(analogues, o.seed, i))
		if err != nil {
			panic(err) // a registry spec always encodes
		}
		r := served{i: i}
		var sp *span
		if o.trace {
			sp = &r.spans
		}
		r.code, r.body, r.lat = serve(f.nodes[i%len(f.nodes)].entry, c, sp)
		r.end, r.size = time.Now(), len(r.body)
		records[client] = append(records[client], r)
	})
	wall := time.Since(start)
	m1, cpu := memSnapshot(), cpuTime()-cpu0
	all := merge(records)
	out.attempted = n

	for _, r := range all {
		if r.code != http.StatusOK {
			out.failed++
			continue
		}
		if out.checkErr == nil {
			out.checkErr = checkColdAnswer(coldSpec(analogues, o.seed, r.i), r.body)
		}
	}
	windowMetrics(out.e2e, all, start, o.seconds, coldWindow, coldTailPct)
	out.e2e["ops_per_cpu_s"] = float64(n) / cpu.Seconds()
	st := statsDelta(stats0, f.engineStats())
	if out.checkErr == nil && (st.CellRuns != n || st.SeqRuns != n) {
		out.checkErr = fmt.Errorf("serve-cold: %d requests ran %d cell and %d sequential simulations, want one each",
			n, st.CellRuns, st.SeqRuns)
	}
	if out.checkErr == nil {
		out.checkErr = checkAgainstStandalone(workers, all, func(i int) call {
			c, _ := coldCall(coldSpec(analogues, o.seed, i))
			return c
		})
	}
	fmt.Printf("serve-cold: %d requests in %.2fs, %d clients\n", n, wall.Seconds(), clients)

	if o.trace {
		after, err := f.fleetCounters()
		if err != nil {
			return nil, err
		}
		l := out.layer
		fleetLayers(l, all, before, after)
		serviceLayers(l, all)
		l["stack.response_bytes"] = meanSize(all)
		l["sim.ops"] = float64(st.SimulatedOps) / float64(n)
		l["sim.ops_per_s"] = float64(st.SimulatedOps) / wall.Seconds()
		expLayers(l, st)
		l["runtime.alloc_bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
		l["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		sample := all[max(len(all)-coldCountSample, 0):]
		share := float64(len(sample)) / float64(n)
		counts, err := coldCounts(f, sample, analogues, o.seed, uint64(share*float64(st.SimulatedOps)))
		if err != nil {
			return nil, err
		}
		counts.cpuSeconds = share * cpu.Seconds()
		if err := traceLayers(l, counts, sim.ModeFast); err != nil {
			return nil, err
		}
		lookupLayers(l)
		if err := encodeLayers(l, f.nodes[0].svc.Engine(), []string{"json"}, false); err != nil {
			return nil, err
		}
	}
	// The benchmark's own records are dead here, so the live heap is the
	// fleet's.
	out.e2e["retained_heap_mb"] = heapMB()
	runtime.KeepAlive(f)
	if o.trace {
		tracedE2E(out)
	}
	return out, nil
}

// merge flattens per-client records into request-index order.
func merge(records [][]served) []served {
	var all []served
	for _, rs := range records {
		all = append(all, rs...)
	}
	byIndex := make([]served, len(all))
	for _, r := range all {
		byIndex[r.i] = r
	}
	return byIndex
}

// checkColdAnswer checks one serve-cold answer: one stack row for the
// requested analogue at the requested thread count, with the Formula
// (4)/(5) identity holding.
func checkColdAnswer(spec workload.Spec, body []byte) error {
	var rows []stack.ReportRow
	if err := json.Unmarshal(body, &rows); err != nil {
		return fmt.Errorf("serve-cold answer is not a JSON row array: %v", err)
	}
	want := workload.Benchmark{Spec: spec}.FullName()
	if len(rows) != 1 || rows[0].Benchmark != want || rows[0].Threads != coldThreads {
		return fmt.Errorf("serve-cold answer for %s x%d: got %d rows %+v", want, coldThreads, len(rows), rows)
	}
	return checkRows(rows)
}

// checkAgainstStandalone replays the first identitySample measured
// requests on a standalone node and requires byte-identical answers: the
// fleet's determinism contract.
func checkAgainstStandalone(workers int, all []served, callFor func(i int) call) error {
	solo := newStandalone(workers)
	for _, r := range all[:min(identitySample, len(all))] {
		code, body, _ := serve(solo, callFor(r.i), nil)
		if code != r.code || !bytes.Equal(body, r.body) {
			return fmt.Errorf("fleet answer %d differs from a standalone node's (status %d vs %d, %d vs %d bytes)",
				r.i, r.code, code, len(r.body), len(body))
		}
	}
	return nil
}

// warmQuery is one query of the serve-warm mix.
type warmQuery struct {
	call
	format string
	kind   string // "stack", "advise" or "whatif"
}

// warmThreads are the thread counts of the /v1/stack part of the mix.
var warmThreads = []int{4, 16}

// warmFormats are the report formats every /v1/stack query is asked in.
var warmFormats = []string{"json", "csv", "svg", "text"}

// warmAdvise and warmWhatIf are the few cells the advisor and what-if
// queries ask about; each is asked in two formats.
var (
	warmAdvise = []string{"blackscholes_parsec_small", "swaptions_parsec_small"}
	warmWhatIf = []string{"blackscholes_parsec_small", "swaptions_parsec_small"}
)

// warmMix is one pass of the serve-warm mix: GET /v1/stack over every
// analogue x {4,16} threads x four formats, plus GET /v1/advise and
// POST /v1/whatif on a few cells, in an order the seed shuffles.
func warmMix(seed uint64) []warmQuery {
	var qs []warmQuery
	for _, b := range workload.All() {
		for _, n := range warmThreads {
			for _, f := range warmFormats {
				qs = append(qs, warmQuery{call{http.MethodGet,
					fmt.Sprintf("/v1/stack?bench=%s&threads=%d&format=%s", b.FullName(), n, f), nil}, f, "stack"})
			}
		}
	}
	for _, b := range warmAdvise {
		for _, f := range []string{"json", "svg"} {
			qs = append(qs, warmQuery{call{http.MethodGet,
				fmt.Sprintf("/v1/advise?bench=%s&format=%s", b, f), nil}, f, "advise"})
		}
	}
	for _, b := range warmWhatIf {
		body := []byte(fmt.Sprintf(`{"bench":%q,"threads":4}`, b))
		for _, f := range []string{"json", "text"} {
			qs = append(qs, warmQuery{call{http.MethodPost, "/v1/whatif?format=" + f, body}, f, "whatif"})
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// warmEntry picks request i's entry node. It alternates by index, and
// flips every pass, so each query reaches both nodes equally often:
// about half the answers are home-node memo hits and half peer-response
// cache hits, whatever the seed.
func warmEntry(i, pass, nodes int) int { return (i + i/pass) % nodes }

// warmUp sends every query of the mix through every node, from clients
// concurrent clients, and returns the answer bytes, checking on the way
// that every answer is a 200 and that every entry node answers the same
// bytes.
func warmUp(f *benchFleet, qs []warmQuery, clients int) ([][]byte, error) {
	answers := make([][]byte, len(qs))
	errs := make([]error, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := int(next.Add(1) - 1); qi < len(qs); qi = int(next.Add(1) - 1) {
				answers[qi], errs[qi] = warmQueryAll(f, qs[qi])
			}
		}()
	}
	wg.Wait()
	return answers, errors.Join(errs...)
}

// warmQueryAll sends one query through every node in turn.
func warmQueryAll(f *benchFleet, q warmQuery) ([]byte, error) {
	var first []byte
	for n := range f.nodes {
		code, body, _ := serve(f.nodes[n].entry, q.call, nil)
		if code != http.StatusOK {
			return nil, fmt.Errorf("warm-up %s %s via node %d: status %d: %s", q.method, q.target, n, code, body)
		}
		if n == 0 {
			first = bytes.Clone(body)
		} else if !bytes.Equal(body, first) {
			return nil, fmt.Errorf("warm-up %s %s: node %d's answer differs from node 0's", q.method, q.target, n)
		}
	}
	return first, nil
}

// checkWarmAnswers checks the captured warm answers' formats.
func checkWarmAnswers(qs []warmQuery, answers [][]byte) error {
	for qi, q := range qs {
		var err error
		switch {
		case q.format == "svg":
			err = checkSVG(answers[qi])
		case q.kind == "stack" && q.format == "json":
			var rows []stack.ReportRow
			if err = json.Unmarshal(answers[qi], &rows); err == nil {
				err = checkRows(rows)
			}
		case q.kind == "stack" && q.format == "csv":
			err = checkCSV(answers[qi])
		}
		if err != nil {
			return fmt.Errorf("%s %s: %w", q.method, q.target, err)
		}
	}
	return nil
}

// runServeWarm sends cache-hit requests from nproc clients into the
// two-node fleet. Set-up warms the working set through both nodes; the
// measured loop simulates nothing.
func runServeWarm(o runOpts) (*outcome, error) {
	workers := runtime.NumCPU()
	qs := warmMix(o.seed)
	round := 2 * len(qs) // two passes: each query once through each node
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}

	var (
		f       *benchFleet
		answers [][]byte
		setups  setupTimes
	)
	for k := 0; k < serveSetups; k++ {
		s := startSetup()
		var err error
		if f, err = newFleet(workers, 0, o.trace); err != nil {
			return nil, err
		}
		if answers, err = warmUp(f, qs, workers); err != nil {
			return nil, err
		}
		setups.add(s)
	}
	out.e2e["setup_s"] = setups.report()
	if err := checkWarmAnswers(qs, answers); err != nil {
		out.checkErr = err
	}

	before, err := f.fleetCounters()
	if err != nil {
		return nil, err
	}
	stats0 := f.engineStats()
	records := make([][]served, workers)
	var mismatch sync.Once
	var mismatchErr error
	m0, cpu0 := memSnapshot(), cpuTime()
	n, start := closedLoop(workers, round, o.seconds, func(client, i int) {
		qi := i % len(qs)
		r := served{i: i}
		var sp *span
		if o.trace {
			sp = &r.spans
		}
		var body []byte
		r.code, body, r.lat = serve(f.nodes[warmEntry(i, len(qs), len(f.nodes))].entry, qs[qi].call, sp)
		r.end = time.Now()
		if r.code == http.StatusOK && !bytes.Equal(body, answers[qi]) {
			mismatch.Do(func() {
				mismatchErr = fmt.Errorf("warm answer %d (%s %s) differs from its warm-up bytes", i, qs[qi].method, qs[qi].target)
			})
		}
		r.size = len(body)
		records[client] = append(records[client], r)
	})
	wall := time.Since(start)
	m1, cpu := memSnapshot(), cpuTime()-cpu0
	all := merge(records)
	out.attempted = n
	for _, r := range all {
		if r.code != http.StatusOK {
			out.failed++
		}
	}
	windowMetrics(out.e2e, all, start, o.seconds, warmWindow, warmTailPct)
	out.e2e["ops_per_cpu_s"] = float64(n) / cpu.Seconds()
	st := statsDelta(stats0, f.engineStats())
	if out.checkErr == nil {
		out.checkErr = mismatchErr
	}
	if out.checkErr == nil && st.CellRuns+st.SeqRuns > 0 {
		out.checkErr = fmt.Errorf("the warm loop ran %d simulations", st.CellRuns+st.SeqRuns)
	}
	if out.checkErr == nil {
		// The loop keeps latencies, not bodies; the standalone node is
		// compared with the warm-up answers, which the loop matched.
		sample := make([]served, 0, identitySample)
		for qi := 0; qi < len(qs) && len(sample) < identitySample; qi += len(qs) / identitySample {
			sample = append(sample, served{i: qi, code: http.StatusOK, body: answers[qi]})
		}
		out.checkErr = checkAgainstStandalone(workers, sample, func(i int) call { return qs[i].call })
	}
	fmt.Printf("serve-warm: %d requests in %.2fs, %d clients, %d queries a pass\n", n, wall.Seconds(), workers, len(qs))

	if o.trace {
		after, err := f.fleetCounters()
		if err != nil {
			return nil, err
		}
		l := out.layer
		fleetLayers(l, all, before, after)
		serviceLayers(l, all)
		expLayers(l, st)
		l["stack.response_bytes"] = meanSize(all)
		l["runtime.alloc_bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
		l["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		lookupLayers(l)
		if err := encodeLayers(l, f.nodes[0].svc.Engine(), warmFormats, true); err != nil {
			return nil, err
		}
	}
	out.e2e["retained_heap_mb"] = heapMB()
	runtime.KeepAlive(f)
	if o.trace {
		tracedE2E(out)
	}
	return out, nil
}

// fleetLayers fills the fleet metrics from the request spans and the
// nodes' /metrics counters.
func fleetLayers(l map[string]float64, all []served, before, after map[string]float64) {
	var route, hop, home, peer []float64
	for _, r := range all {
		s := r.spans
		route = append(route, us(r.lat-s.local-s.hop))
		switch {
		case s.hop > 0:
			hop = append(hop, us(s.hop-s.remote))
		case s.local > 0:
			home = append(home, us(r.lat))
		default:
			peer = append(peer, us(r.lat))
		}
	}
	l["fleet.route_us"] = median(route)
	l["fleet.hop_us"] = median(hop)
	l["fleet.home_hit_us"] = median(home)
	l["fleet.peer_hit_us"] = median(peer)
	l["fleet.forwarded"] = after["speedupd_fleet_forwarded_total"] - before["speedupd_fleet_forwarded_total"]
	l["fleet.peer_hits"] = after["speedupd_fleet_peer_cache_hits_total"] - before["speedupd_fleet_peer_cache_hits_total"]
	l["fleet.peer_hit_ratio"] = l["fleet.peer_hits"] / float64(len(all))
}

// meanSize is the mean response size in bytes.
func meanSize(all []served) float64 {
	total := 0
	for _, r := range all {
		total += r.size
	}
	return float64(total) / float64(len(all))
}

// serviceLayers fills service.handler_us: the median service-handler time
// of a request, on whichever node served it.
func serviceLayers(l map[string]float64, all []served) {
	var svc []float64
	for _, r := range all {
		if d := r.spans.local + r.spans.remote; d > 0 {
			svc = append(svc, us(d))
		}
	}
	l["service.handler_us"] = median(svc)
}

// expLayers fills the engine metrics from a stats delta.
func expLayers(l map[string]float64, st exp.Stats) {
	l["exp.cell_runs"] = float64(st.CellRuns)
	l["exp.seq_runs"] = float64(st.SeqRuns)
	l["exp.cell_hits"] = float64(st.CellHits)
	l["exp.seq_hits"] = float64(st.SeqHits)
	l["exp.memo_hit_ratio"] = hitRatio(st)
}

// coldCounts collects the layer call counts of serve-cold requests from
// the simulation results they produced, read back from each request's home
// engine memo; the requests must be recent enough to be retained there.
// simOps is their share of the simulated ops.
func coldCounts(f *benchFleet, sample []served, analogues []workload.Benchmark, seed uint64, simOps uint64) (layerCounts, error) {
	cfg := sim.Default().WithMode(sim.ModeFast)
	var c layerCounts
	for _, r := range sample {
		spec := coldSpec(analogues, seed, r.i)
		home := f.nodes[0].entry.Ring().Owner(spec.Fingerprint().String())
		var e *exp.Engine
		for k, name := range memberNames {
			if name == home {
				e = f.nodes[k].svc.Engine()
			}
		}
		outs, err := e.Do(context.Background(), []exp.Request{{Cell: exp.Cell{Spec: &spec, Threads: coldThreads}, Config: &cfg}})
		if err != nil {
			return c, err
		}
		c.add(outs[0].Result, 1)
	}
	c.scaleTo(simOps)
	c.units = float64(len(sample))
	return c, nil
}
