package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"syscall"
	"time"

	"repro/internal/atd"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/mem"
	"repro/internal/scaling"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/syncprim"
	"repro/internal/trace"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// The simulator's internal layers are costed by replay: the traced run
// records SPTR traces (internal/trace's file format) of a fixed subset of
// paper cells, replays their operations straight into each layer's
// exported call, and multiplies the measured ns per call by the real run's
// call counts. The replay interleaves threads round-robin in fixed chunks,
// not in sim.Machine's timing order, so it prices the calls, not the
// exact cache and queue states the machine would reach.

const (
	// replayThreads is the thread count of the recorded cells.
	replayThreads = 8
	// replayChunk is how many ops of one thread the replay takes before
	// moving to the next thread.
	replayChunk = 64
	// replayReps is how often each layer replay is timed; the median
	// counts.
	replayReps = 3
)

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// layerCounts are a run's layer call counts, taken from the simulation
// results the run produced, for units operations.
type layerCounts struct {
	units      float64 // operations (regenerations or requests) covered
	cpuSeconds float64 // process CPU time of the measured loop
	// ops is every simulated op; parOps those of the parallel cells.
	ops, parOps                                      float64
	cacheAccesses, llcMisses, atdAccesses, memAccess float64
	ctxSwitches                                      float64
}

// add counts k runs with result r.
func (c *layerCounts) add(r sim.Result, k int) {
	w := float64(k)
	c.parOps += w * float64(r.TotalOps)
	cs := r.CacheStats
	for i := range cs.L1Hits {
		c.cacheAccesses += w * float64(cs.L1Hits[i]+cs.L1Misses[i])
		c.llcMisses += w * float64(cs.LLCMisses[i])
	}
	for _, t := range r.PerThread {
		c.atdAccesses += w * float64(t.SampledATDAccesses+t.OracleATDAccesses)
	}
	c.memAccess += w * float64(r.MemStats.Accesses)
	for _, s := range r.SchedStats {
		c.ctxSwitches += w * float64(s.CtxSwitches)
	}
}

// scaleTo extends the cache and memory counts from the parallel cells to
// all simOps simulated ops, at the parallel cells' per-op rate: the
// engine returns no Result for sequential references, which run the cache
// and memory layers but no ATD accounting and no scheduling to speak of.
func (c *layerCounts) scaleTo(simOps uint64) {
	c.ops = float64(simOps)
	if c.parOps == 0 {
		return
	}
	f := c.ops / c.parOps
	c.cacheAccesses *= f
	c.llcMisses *= f
	c.memAccess *= f
}

// paperCounts reads the parallel-cell results of one regeneration back
// from its engine's memo, for every cell the run hook logged. Figure 9's
// larger-LLC cells are counted with their base-machine twin's result.
func paperCounts(ctx context.Context, e *exp.Engine, log *runLog, simOps uint64) (layerCounts, error) {
	var c layerCounts
	log.mu.Lock()
	runs := make(map[runKey]int, len(log.runs))
	for k, n := range log.runs {
		runs[k] = n
	}
	log.mu.Unlock()
	for k, n := range runs {
		if k.kind != "cell" {
			continue
		}
		outs, err := e.Do(ctx, []exp.Request{{Cell: exp.Cell{Bench: k.bench, Threads: k.threads, Cores: k.cores}}})
		if err != nil {
			return c, err
		}
		c.add(outs[0].Result, n)
	}
	c.scaleTo(simOps)
	c.units = 1
	return c, nil
}

// recorded is one replayable cell.
type recorded struct {
	spec    workload.Spec // the generated workload
	replay  workload.Spec // its trace replay (KindTrace)
	data    *trace.Data
	result  sim.Result // the recorded run's result
	streams [][]trace.Op
	mixed   []tidOp // streams interleaved round-robin
}

type tidOp struct {
	tid int
	op  trace.Op
}

// replaySubset is the fixed subset of paper cells the replay records: the
// first analogue of each structural family in registry order.
func replaySubset() []workload.Spec {
	var out []workload.Spec
	seen := map[workload.Kind]bool{}
	for _, b := range workload.All() {
		if !seen[b.Spec.Kind] {
			seen[b.Spec.Kind] = true
			out = append(out, b.Spec)
		}
	}
	return out
}

// recordSubset records, encodes and decodes the subset's traces.
func recordSubset() ([]*recorded, error) {
	var cells []*recorded
	for _, s := range replaySubset() {
		f, res, err := workload.Record(sim.Default(), s, replayThreads)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := f.Encode(&buf); err != nil {
			return nil, err
		}
		d, err := trace.Decode(buf.Bytes())
		if err != nil {
			return nil, fmt.Errorf("decoding the %s trace: %w", s.Name, err)
		}
		c := &recorded{spec: s, replay: workload.TraceSpec(d), data: d, result: res}
		for t := 0; t < d.Threads(); t++ {
			c.streams = append(c.streams, drain(d.ThreadProgram(t)))
		}
		for pos := 0; ; pos += replayChunk {
			more := false
			for t, ops := range c.streams {
				for _, op := range ops[min(pos, len(ops)):min(pos+replayChunk, len(ops))] {
					c.mixed = append(c.mixed, tidOp{t, op})
					more = true
				}
			}
			if !more {
				break
			}
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// drain reads a program's stream up to its End op.
func drain(p trace.Program) []trace.Op {
	var ops []trace.Op
	generate(p, -1, func(buf []trace.Op) { ops = append(ops, buf...) })
	return ops
}

// generate pulls a program's stream in batches up to its End op, or up to
// limit ops when limit >= 0, handing each batch to use, and returns the
// op count. Pops are always answered as successful.
func generate(p trace.Program, limit int, use func([]trace.Op)) int {
	buf := make([]trace.Op, 512)
	bp, batched := p.(trace.BatchProgram)
	n := 0
	for limit < 0 || n < limit {
		k := 1
		if batched {
			k = bp.NextBatch(buf, trace.Feedback{PopOK: true})
		} else {
			buf[0] = p.Next(trace.Feedback{PopOK: true})
		}
		for i, op := range buf[:k] {
			if op.Kind == trace.KindEnd {
				use(buf[:i])
				return n + i
			}
		}
		use(buf[:k])
		n += k
	}
	return n
}

// nsPerCall times run replayReps times and returns the median ns per call;
// run returns how many calls it made. It counts process CPU time, which
// leaves out the time the host steals, as the CPU time the shares divide
// by does.
func nsPerCall(run func() int) float64 {
	return nsPerPreparedCall(func() func() int { return run })
}

// nsPerPreparedCall is nsPerCall for a run that needs fresh state: prepare
// builds it, untimed, before every timed pass.
func nsPerPreparedCall(prepare func() func() int) float64 {
	var xs []float64
	for i := 0; i < replayReps; i++ {
		run := prepare()
		t0 := cpuTime()
		n := run()
		if n > 0 {
			xs = append(xs, float64((cpuTime()-t0).Nanoseconds())/float64(n))
		}
	}
	return median(xs)
}

// traceLayers fills the simulator layers' metrics of a traced run: replay
// costs per call, the real run's call counts per operation, and each
// layer's estimated share of the loop's CPU time. mode is the fidelity the
// workload's cells run in.
func traceLayers(l map[string]float64, c layerCounts, mode sim.Mode) error {
	cells, err := recordSubset()
	if err != nil {
		return err
	}
	cfg := sim.Default()
	var (
		genNs, cacheNs, atdNs, memNs, syncNs, schedNs, estUs []float64
		exactNs, fastNs, seqMs, parMs                        []float64
		syncOps, allOps                                      float64
	)
	for _, cell := range cells {
		threads := len(cell.streams)
		var loads []tidOp
		for _, to := range cell.mixed {
			switch to.op.Kind {
			case trace.KindLoad, trace.KindStore:
				loads = append(loads, to)
			case trace.KindLock, trace.KindUnlock, trace.KindBarrier, trace.KindPush, trace.KindPop, trace.KindCloseQueue:
				syncOps++
			}
		}
		allOps += float64(len(cell.mixed))

		genNs = append(genNs, nsPerCall(func() int {
			progs, err := cell.spec.Parallel(threads)
			if err != nil {
				return 0
			}
			n := 0
			for t, p := range progs {
				n += generate(p, len(cell.streams[t]), func([]trace.Op) {})
			}
			return n
		}))

		h := cache.NewHierarchy(threads, cfg.L1, cfg.LLC)
		var llc, misses []tidOp
		for _, to := range loads {
			if out := h.Access(to.tid, to.op.Addr, to.op.Kind == trace.KindStore); !out.L1Hit {
				llc = append(llc, to)
				if !out.LLCHit {
					misses = append(misses, to)
				}
			}
		}
		cacheNs = append(cacheNs, nsPerCall(func() int {
			h.Reset()
			for _, to := range loads {
				h.Access(to.tid, to.op.Addr, to.op.Kind == trace.KindStore)
			}
			return len(loads)
		}))

		atdCfg := atd.Config{Sets: cfg.LLC.Sets(), Ways: cfg.LLC.Ways, LineBytes: cfg.LLC.LineBytes, TagBits: 24}
		sampled, oracle := make([]*atd.Directory, threads), make([]*atd.Directory, threads)
		for t := range sampled {
			sc := atdCfg
			sc.SampleShift = cfg.ATDSampleShift
			sampled[t], oracle[t] = atd.New(sc), atd.New(atdCfg)
		}
		atdNs = append(atdNs, nsPerCall(func() int {
			n := 0
			for t := range sampled {
				sampled[t].Reset()
				oracle[t].Reset()
			}
			for _, to := range llc {
				set, tag := cfg.LLC.SetIndex(to.op.Addr), cfg.LLC.Tag(to.op.Addr)
				if sampled[to.tid].SampledSet(set) {
					sampled[to.tid].AccessSetTag(set, tag)
					n++
				}
				oracle[to.tid].AccessSetTag(set, tag)
				n++
			}
			return n
		}))

		ctrl := mem.NewController(cfg.Mem, threads)
		memNs = append(memNs, nsPerCall(func() int {
			ctrl.Reset()
			now := uint64(0)
			for _, to := range misses {
				ctrl.Access(now, to.tid, to.op.Addr)
				now += 50
			}
			return len(misses)
		}))

		syncNs = append(syncNs, nsPerPreparedCall(func() func() int { return syncReplay(cell, threads) }))
		schedNs = append(schedNs, nsPerCall(func() int { return replaySched(cfg.Sched, cell, threads) }))

		estUs = append(estUs, nsPerCall(func() int {
			const n = 1000
			for i := 0; i < n; i++ {
				core.BuildStack(threads, cell.result.Tp, cell.result.PerThread)
			}
			return n
		})/1e3)

		for _, m := range []sim.Mode{sim.ModeExact, sim.ModeFast} {
			mc := cfg.WithMode(m)
			var par, seq time.Duration
			var ops uint64
			for i := 0; i < replayReps; i++ {
				d, res, err := simulate(mc, cell.replay, threads, false)
				if err != nil {
					return err
				}
				ds, _, err := simulate(mc, cell.replay, threads, true)
				if err != nil {
					return err
				}
				if i == 0 || d < par {
					par, ops = d, res.TotalOps
				}
				if i == 0 || ds < seq {
					seq = ds
				}
			}
			if m == sim.ModeExact {
				exactNs = append(exactNs, float64(par.Nanoseconds())/float64(ops))
			} else {
				fastNs = append(fastNs, float64(par.Nanoseconds())/float64(ops))
			}
			if m == mode {
				parMs, seqMs = append(parMs, ms(par)), append(seqMs, ms(seq))
			}
		}
	}

	u := c.units
	l["workload.gen_ns_per_op"] = median(genNs)
	l["cache.access_ns"] = median(cacheNs)
	l["atd.access_ns"] = median(atdNs)
	l["mem.access_ns"] = median(memNs)
	l["syncprim.op_ns"] = median(syncNs)
	l["sched.schedule_ns"] = median(schedNs)
	l["core.estimate_us"] = median(estUs)
	l["sim.exact_ns_per_op"] = median(exactNs)
	l["sim.fast_ns_per_op"] = median(fastNs)
	l["sim.seq_ms"] = median(seqMs)
	l["sim.par_ms"] = median(parMs)
	l["cache.accesses"] = c.cacheAccesses / u
	l["cache.llc_misses"] = c.llcMisses / u
	l["atd.accesses"] = c.atdAccesses / u
	l["mem.accesses"] = c.memAccess / u
	l["sched.ctx_switches"] = c.ctxSwitches / u
	// The results carry no sync-op count; the recorded traces' share of
	// sync ops stands in for it.
	l["syncprim.ops"] = c.ops / u * syncOps / allOps

	cpuNs := c.cpuSeconds * 1e9 / u
	share := func(ns, calls float64) float64 { return 100 * ns * calls / cpuNs }
	l["replay.cache_share_pct"] = share(l["cache.access_ns"], l["cache.accesses"])
	l["replay.atd_share_pct"] = share(l["atd.access_ns"], l["atd.accesses"])
	l["replay.mem_share_pct"] = share(l["mem.access_ns"], l["mem.accesses"])
	l["replay.workload_share_pct"] = share(l["workload.gen_ns_per_op"], c.ops/u)
	l["replay.sync_share_pct"] = share(l["syncprim.op_ns"], l["syncprim.ops"]) +
		share(l["sched.schedule_ns"], l["sched.ctx_switches"])
	l["replay.unexplained_pct"] = 100 - l["replay.cache_share_pct"] - l["replay.atd_share_pct"] -
		l["replay.mem_share_pct"] - l["replay.workload_share_pct"] - l["replay.sync_share_pct"]
	return nil
}

// simulate runs a trace replay spec the way the engine runs a cell (cores
// = threads, the workload's sync policy and registrations) or, with seq
// set, its sequential reference, and returns the wall time.
func simulate(cfg sim.Config, s workload.Spec, threads int, seq bool) (time.Duration, sim.Result, error) {
	cfg.Policy = s.TunePolicy(cfg.Policy)
	t0 := time.Now()
	if seq {
		p, err := s.Sequential()
		if err != nil {
			return 0, sim.Result{}, err
		}
		res, err := sim.RunSequential(cfg, p, sim.WithoutAccounting())
		return time.Since(t0), res, err
	}
	progs, err := s.Parallel(threads)
	if err != nil {
		return 0, sim.Result{}, err
	}
	res, err := sim.Run(cfg.WithCores(threads), progs, s.PipelineOptions(threads)...)
	return time.Since(t0), res, err
}

// syncReplay prepares a replay of a cell's synchronization ops on fresh
// syncprim objects, resolved up front so the timed pass makes only the
// calls; the returned function returns how many it made. The replay does
// not block threads, so it prices the uncontended paths: each thread gets
// its own lock per lock ID, queues are unbounded, and pops from an empty
// queue and pushes to a closed one are skipped.
func syncReplay(cell *recorded, threads int) func() int {
	type lockKey struct {
		id  uint32
		tid int
	}
	type syncCall struct {
		kind    trace.Kind
		tid     int
		lock    *syncprim.Lock
		barrier *syncprim.Barrier
		queue   *syncprim.Queue
	}
	locks := map[lockKey]*syncprim.Lock{}
	barriers := map[uint32]*syncprim.Barrier{}
	queues := map[uint32]*syncprim.Queue{}
	for _, b := range cell.data.Barriers() {
		barriers[b.ID] = syncprim.NewBarrier(b.Parties)
	}
	var calls []syncCall
	for _, to := range cell.mixed {
		c := syncCall{kind: to.op.Kind, tid: to.tid}
		switch to.op.Kind {
		case trace.KindLock, trace.KindUnlock:
			k := lockKey{to.op.ID, to.tid}
			if locks[k] == nil {
				locks[k] = syncprim.NewLock()
			}
			c.lock = locks[k]
		case trace.KindBarrier:
			if barriers[to.op.ID] == nil {
				barriers[to.op.ID] = syncprim.NewBarrier(threads)
			}
			c.barrier = barriers[to.op.ID]
		case trace.KindPush, trace.KindPop, trace.KindCloseQueue:
			if queues[to.op.ID] == nil {
				queues[to.op.ID] = syncprim.NewQueue(1 << 30)
			}
			c.queue = queues[to.op.ID]
		default:
			continue
		}
		calls = append(calls, c)
	}
	return func() int {
		n := 0
		for _, c := range calls {
			switch {
			case c.kind == trace.KindLock:
				c.lock.Acquire(c.tid)
			case c.kind == trace.KindUnlock && c.lock.Owner() >= 0:
				c.lock.Release(nil)
			case c.kind == trace.KindBarrier:
				c.barrier.Arrive(c.tid)
			case c.kind == trace.KindPush && !c.queue.Closed():
				c.queue.Push(c.tid, nil)
			case c.kind == trace.KindPop && c.queue.Items() > 0:
				c.queue.Pop(c.tid, nil)
			case c.kind == trace.KindCloseQueue && !c.queue.Closed():
				c.queue.Close()
			default:
				continue
			}
			n++
		}
		return n
	}
}

// replaySched runs one block-wake-schedule cycle on a fresh scheduler for
// every blocking sync op of the cell and returns the Schedule calls made.
func replaySched(cfg sched.Config, cell *recorded, threads int) int {
	o := sched.New(cfg, threads, threads)
	now := uint64(0)
	n := 0
	for _, to := range cell.mixed {
		switch to.op.Kind {
		case trace.KindLock, trace.KindBarrier, trace.KindPop:
			o.Block(to.tid, now)
			o.Wake(to.tid, now)
			now += 1000
			o.Schedule(to.tid, now)
			n++
		}
	}
	return n
}

// lookupLayers times the request-path lookups: workload.ByName over the
// analogues' names, Spec.Fingerprint and ParseSpec over their specs.
func lookupLayers(l map[string]float64) {
	all := workload.All()
	bodies := make([][]byte, len(all))
	for i, b := range all {
		bodies[i], _ = json.Marshal(b.Spec)
	}
	l["workload.byname_us"] = nsPerCall(func() int {
		for _, b := range all {
			workload.ByName(b.FullName())
		}
		return len(all)
	}) / 1e3
	l["workload.fingerprint_us"] = nsPerCall(func() int {
		for _, b := range all {
			b.Spec.Fingerprint()
		}
		return len(all)
	}) / 1e3
	l["workload.parse_us"] = nsPerCall(func() int {
		for _, body := range bodies {
			workload.ParseSpec(body)
		}
		return len(bodies)
	}) / 1e3
}

// encodeLayers times the stack encoders in the given formats on one real
// answer, a 4-thread stack of the first analogue simulated on e, and with
// warm set the scaling and what-if encoders on the serve-warm mix's first
// advisor and what-if answers.
func encodeLayers(l map[string]float64, e *exp.Engine, formats []string, warm bool) error {
	ctx := context.Background()
	outs, err := e.Sweep(ctx, []exp.Cell{{Bench: workload.All()[0].FullName(), Threads: warmThreads[0]}})
	if err != nil {
		return err
	}
	bars := []stack.Bar{{Label: outs[0].Bench.FullName(), Stack: outs[0].Stack}}
	for _, f := range formats {
		format, err := stack.ParseFormat(f)
		if err != nil {
			return err
		}
		l["stack.encode_us."+f] = encodeUs(func(w io.Writer) { stack.Encode(w, format, bars) })
	}
	if !warm {
		return nil
	}
	adv, err := e.Advise(ctx, exp.Request{Cell: exp.Cell{Bench: warmAdvise[0]}}, 16)
	if err != nil {
		return err
	}
	l["scaling.encode_us"] = encodeUs(func(w io.Writer) { scaling.Encode(w, stack.FormatJSON, adv) })
	rep, err := e.WhatIf(ctx, exp.Request{Cell: exp.Cell{Bench: warmWhatIf[0], Threads: 4}}, nil)
	if err != nil {
		return err
	}
	l["whatif.encode_us"] = encodeUs(func(w io.Writer) { whatif.Encode(w, stack.FormatJSON, rep) })
	return nil
}

// encodeUs is the median µs of one encode into a reused buffer.
func encodeUs(enc func(io.Writer)) float64 {
	var buf bytes.Buffer
	return nsPerCall(func() int {
		const n = 200
		for i := 0; i < n; i++ {
			buf.Reset()
			enc(&buf)
		}
		return n
	}) / 1e3
}

// tracedE2E copies a traced run's own end-to-end metrics into its layer
// report, so the tracing overhead (traced minus untraced) is visible.
func tracedE2E(out *outcome) {
	for _, m := range e2eMetrics {
		out.layer["traced."+m.name] = out.e2e[m.name]
	}
}
