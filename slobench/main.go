// Command slobench is Murmuration's end-to-end serving benchmark. It
// assembles the deployed stack in one process — gateway, strategy runtime,
// scheduler and three loopback device daemons — drives one of three seeded
// workloads at it, checks every served answer against the reference model,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics of a traced run) ending in one JSON line.
//
// Usage (from the repository root):
//
//	bash slobench/run.sh --workload lone-wire --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"murmuration/internal/runtime"
	"murmuration/internal/serve"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

const (
	setupRuns  = 5                 // set-ups per run; setup_s is their median
	runLimit   = 170 * time.Second // a wedged run exits non-zero before this
	warmupSeed = 1_000_003         // offsets the warm-up phase's seed
)

// bench is the assembled stack plus what the load generators and the oracle
// share.
type bench struct {
	w     *workload
	s     *stack
	pool  []*tensor.Tensor
	or    *oracle
	nproc int
}

// submitInProcess sends one request through Gateway.Submit.
func (b *bench) submitInProcess(s *sample) {
	s.sent = time.Now()
	s.out, s.err = b.s.gw.Submit(b.pool[s.req.input], s.req.slo)
	s.done = time.Now()
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "lone-wire, batch-saturate or fanout")
	seed := flag.Int64("seed", 1, "seed for inputs, arrivals, SLOs and link changes")
	seconds := flag.Int("seconds", 10, "seconds measured")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory for the traced run's span file")
	flag.Parse()
	w := workloads[*name]
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: slobench --workload lone-wire|batch-saturate|fanout --seed N --seconds S --trace 0|1")
		return 2
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "slobench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	nproc := goruntime.NumCPU()
	fmt.Printf("slobench workload=%s seed=%d seconds=%d trace=%d go=%s GOMAXPROCS=%d nproc=%d\n",
		w.name, *seed, *seconds, *traceFlag, goruntime.Version(), goruntime.GOMAXPROCS(0), nproc)

	var tr *tracer
	if *traceFlag == 1 {
		tr = newTracer()
	}
	b, setup, err := setUp(w, *seed, tr, nproc)
	if err != nil {
		log.Printf("setup: %v", err)
		return 1
	}
	defer b.s.close()

	warmSeed := *seed + warmupSeed
	if _, err := w.drive(b, w.requests(warmSeed, warmup), warmup, warmSeed); err != nil {
		log.Printf("warm-up: %v", err)
		return 1
	}

	d := time.Duration(*seconds) * time.Second
	rep := newReport()
	var phases []*phase
	if tr == nil {
		ph, err := b.phase(*seed, d)
		if err != nil {
			log.Printf("run: %v", err)
			return 1
		}
		phases = append(phases, ph)
		ph.endToEnd(rep, setup)
	} else {
		// Untraced then traced halves of the same length: their latency
		// medians differ by the tracing overhead.
		plain, err := b.phase(*seed, d/2)
		if err != nil {
			log.Printf("run: %v", err)
			return 1
		}
		tr.on.Store(true)
		traced, err := b.phase(*seed+1, d/2)
		tr.on.Store(false)
		if err != nil {
			log.Printf("run: %v", err)
			return 1
		}
		phases = append(phases, plain, traced)
		traced.perLayer(rep, tr, plain)
		path := filepath.Join(*outDir, fmt.Sprintf("slobench-trace-%s-seed%d.jsonl", w.name, *seed))
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Printf("trace output: %v", err)
			return 1
		}
		if err := tr.write(path); err != nil {
			log.Printf("trace output: %v", err)
			return 1
		}
		fmt.Printf("spans written to %s\n", path)
	}

	attempted, failed, wrong := 0, 0, 0
	for i, ph := range phases {
		attempted += len(ph.samples)
		failed += ph.notServed() + ph.verdict.wrong
		wrong += ph.verdict.wrong
		label := "measured"
		if len(phases) > 1 {
			label = [...]string{"untraced half", "traced half"}[i]
		}
		ph.printOracle(label)
	}
	for _, n := range rep.names {
		fmt.Printf("%-32s %14.6g %s\n", n, rep.m[n].Value, rep.m[n].Unit)
	}
	out, err := json.Marshal(map[string]any{
		"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": rep.m,
	})
	if err != nil {
		log.Printf("encode result: %v", err)
		return 1
	}
	fmt.Println(string(out))
	if wrong > 0 {
		return 1
	}
	return 0
}

// setUp assembles the stack and the answer oracle setupRuns times — the
// stack, the seeded input pool and the precomputed reference logits — and
// keeps the last one. It returns the median set-up time in seconds.
func setUp(w *workload, seed int64, tr *tracer, nproc int) (*bench, float64, error) {
	opts := w.stack
	opts.tr = tr
	var times []float64
	var b *bench
	for i := 0; i < setupRuns; i++ {
		if b != nil {
			b.s.close()
		}
		start := time.Now()
		s, err := newStack(opts)
		if err != nil {
			return nil, 0, err
		}
		b = &bench{w: w, s: s, pool: inputPool(seed), nproc: nproc}
		b.or = newOracle(s.net, b.pool)
		cfgs, err := w.knownConfigs(s)
		if err == nil {
			err = b.or.precompute(cfgs)
		}
		if err != nil {
			s.close()
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return b, median(times), nil
}

// phase is one measured stretch of a workload and its verified samples.
type phase struct {
	w       *workload
	samples []*sample
	elapsed time.Duration // phase start to the last outcome
	st0     serve.Stats
	st1     serve.Stats
	sc0     runtime.SchedStats
	sc1     runtime.SchedStats
	start   time.Time
	p0, p1  proc
	sampler *sampler
	verdict verdict
}

// phase offers the workload's requests for seed over d, then checks every
// answer.
func (b *bench) phase(seed int64, d time.Duration) (*phase, error) {
	reqs := b.w.requests(seed, d)
	goruntime.GC() // every phase starts from a collected heap
	ph := &phase{w: b.w, st0: b.s.gw.Stats(), sc0: b.s.rt.Scheduler.Stats(), p0: readProc()}
	start := time.Now()
	ph.start = start
	ph.sampler = startSampler(start)
	samples, err := b.w.drive(b, reqs, d, seed)
	ph.sampler.end()
	ph.p1, ph.sc1, ph.st1 = readProc(), b.s.rt.Scheduler.Stats(), b.s.gw.Stats()
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no requests sent")
	}
	ph.samples = samples
	for _, s := range samples {
		if s.done.Sub(start) > ph.elapsed {
			ph.elapsed = s.done.Sub(start)
		}
	}
	maxRung := 0
	if ph.st1.Degraded > ph.st0.Degraded {
		maxRung = runtime.DefaultMaxRung
	}
	ph.verdict, err = b.or.verify(samples, func(s *sample) []*supernet.Config {
		return candidateConfigs(b.s.rt, b.s.decider, s, maxRung)
	}, b.w.stack.front, b.nproc)
	return ph, err
}

func (ph *phase) served() int { return len(ph.samples) - ph.notServed() }

func (ph *phase) notServed() int {
	n := 0
	for _, s := range ph.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

func (ph *phase) printOracle(label string) {
	v := ph.verdict
	fmt.Printf("oracle (%s): %d served answers checked, %d multi-request batches reassembled, %d wrong, tolerance %g\n",
		label, v.checked, v.batches, v.wrong, tolerance)
	if ph.w.stack.front {
		fmt.Println("oracle: rung and strategy do not travel the wire; an answer matches if it equals any decision the decider produced for its SLO bucket")
	}
}

// minWindowSamples is the fewest requests a window needs to take part in
// the windowed latency and CPU metrics.
const minWindowSamples = 50

// endToEnd sets the end-to-end metrics of BENCHMARK.json and prints the
// others: error_frac and degraded_frac (the result carries their
// complements, ok_frac and full_quality_frac, which are never 0), and the
// latency percentiles and CPU over the whole phase.
func (ph *phase) endToEnd(rep *report, setupS float64) {
	sent := len(ph.samples)
	served := ph.served()
	nWin := len(ph.sampler.cpu) - 1
	winLat := make([][]float64, nWin)
	winServed := make([]int, nWin)
	var lat []float64
	met, metQuality, degraded := 0, 0, 0
	for _, s := range ph.samples {
		if s.err != nil {
			continue
		}
		l := ms(s.latency())
		lat = append(lat, l)
		if k := int(s.due.Sub(ph.start) / window); k < nWin {
			winLat[k] = append(winLat[k], l)
		}
		if k := int(s.done.Sub(ph.start) / window); k < nWin {
			winServed[k]++
		}
		if s.out.Rung > 0 {
			degraded++
		}
		if s.wrong {
			continue
		}
		switch serve.ClassFor(s.req.slo) {
		case serve.ClassLatency:
			if l <= s.req.slo.Value {
				met++
			}
		default:
			// Accuracy and best-effort requests are met only at full
			// quality (rung 0).
			if s.out.Rung <= 0 {
				metQuality++
			}
		}
	}
	if ph.w.stack.front {
		// The rung does not travel the wire: take degraded requests from the
		// gateway's counter and charge them all to the quality classes.
		degraded = int(ph.st1.Degraded - ph.st0.Degraded)
		metQuality = max(metQuality-degraded, 0)
	}
	met += metQuality
	wrong := ph.verdict.wrong
	errFrac := ratio(float64(sent-served+wrong), float64(sent))
	degFrac := ratio(float64(degraded), float64(served))
	cpuAll := ratio(ms(ph.p1.cpu-ph.p0.cpu), float64(served))

	// The least-disturbed window: co-tenants on a shared machine only ever
	// add latency and CPU, so the lowest window is the steadiest estimate of
	// the program's own cost. Whole-phase values are printed beside it.
	p50, cpu, windows := math.Inf(1), math.Inf(1), 0
	for k := 0; k < nWin; k++ {
		if len(winLat[k]) < minWindowSamples || winServed[k] < minWindowSamples {
			continue
		}
		windows++
		p50 = min(p50, pct(winLat[k], 0.50))
		cpu = min(cpu, ms(ph.sampler.cpu[k+1]-ph.sampler.cpu[k])/float64(winServed[k]))
	}
	if windows == 0 {
		p50, cpu = pct(lat, 0.50), cpuAll
	}

	fmt.Printf("samples: sent=%d served=%d latency samples=%d elapsed=%.3fs windows=%d of %v\n",
		sent, served, len(lat), ph.elapsed.Seconds(), windows, window)
	for _, m := range []struct {
		name, unit string
		v          float64
	}{
		{"error_frac", "ratio", errFrac},
		{"degraded_frac", "ratio", degFrac},
		{"latency_p50_all_ms", "ms", pct(lat, 0.50)},
		{"latency_p99_ms", "ms", pct(lat, 0.99)},
		{"cpu_ms_per_req_all", "ms", cpuAll},
	} {
		fmt.Printf("%-32s %14.6g %s\n", m.name, m.v, m.unit)
	}
	rep.set("setup_s", setupS, "s")
	rep.set("latency_p50_ms", p50, "ms")
	rep.set("slo_attainment", ratio(float64(met), float64(sent)), "ratio")
	rep.set("throughput_rps", ratio(float64(served), ph.elapsed.Seconds()), "1/s")
	rep.set("ok_frac", 1-errFrac, "ratio")
	rep.set("full_quality_frac", 1-degFrac, "ratio")
	rep.set("cpu_ms_per_req", cpu, "ms")
	rep.set("heap_peak_mb", median(ph.sampler.heap)/(1<<20), "MiB")
}

// perLayer sets the per-layer metrics of the traced phase; plain is the
// untraced phase run just before it on the same stack.
func (ph *phase) perLayer(rep *report, tr *tracer, plain *phase) {
	wire := ph.w.stack.front
	var queue, decide, exec, perItem, wireOver, lag, e2e, plainE2E []float64
	for _, s := range plain.samples {
		if s.err == nil {
			plainE2E = append(plainE2E, ms(s.latency()))
		}
	}
	for i, s := range ph.samples {
		tr.addRequest(i, s, wire)
		lag = append(lag, ms(s.lag))
		if s.err != nil {
			continue
		}
		o := s.out
		queue = append(queue, ms(o.QueueWait))
		decide = append(decide, ms(o.DecideTime))
		exec = append(exec, ms(o.ExecTime-o.DecideTime))
		perItem = append(perItem, ms(o.ExecTime-o.DecideTime)/float64(max(o.BatchSize, 1)))
		e2e = append(e2e, ms(s.latency()))
		if wire {
			wireOver = append(wireOver, ms(s.done.Sub(s.sent)-o.QueueWait-o.ExecTime))
		}
	}
	st0, st1, sc0, sc1 := ph.st0, ph.st1, ph.sc0, ph.sc1
	batches := float64(st1.Batches - st0.Batches)
	served := float64(ph.served())
	tiles := msAll(tr.durations("rpcx.tile"))
	execs := msAll(tr.durations("runtime.executor"))
	searches := msAll(tr.durations("rl.search"))

	rep.set("serve.queue_wait_ms_p50", pct(queue, 0.50), "ms")
	rep.set("serve.queue_wait_ms_p99", pct(queue, 0.99), "ms")
	rep.set("serve.batch_size_mean", ratio(float64(st1.BatchedRequests-st0.BatchedRequests), batches), "count")
	rep.set("serve.shed", float64(st1.Shed-st0.Shed), "count")
	rep.set("serve.dropped", float64(st1.Dropped-st0.Dropped), "count")
	rep.set("serve.failed", float64(st1.Failed-st0.Failed), "count")
	rep.set("serve.wire_overhead_ms_p50", pct(wireOver, 0.50), "ms")
	rep.set("runtime.decide_ms_p50", pct(decide, 0.50), "ms")
	rep.set("runtime.decide_ms_p99", pct(decide, 0.99), "ms")
	hits, misses := st1.Cache.Hits-st0.Cache.Hits, st1.Cache.Misses-st0.Cache.Misses
	rep.set("runtime.cache_hit_rate", ratio(float64(hits), float64(hits+misses)), "ratio")
	rep.set("runtime.resolve_coalesced", float64(st1.ResolveCoalesced-st0.ResolveCoalesced), "count")
	rep.set("rl.search_calls", float64(len(searches)), "count")
	rep.set("rl.search_ms_p50", pct(searches, 0.50), "ms")
	rep.set("runtime.exec_ms_p50", pct(exec, 0.50), "ms")
	rep.set("runtime.exec_ms_p99", pct(exec, 0.99), "ms")
	rep.set("runtime.exec_ms_per_item", mean(perItem), "ms")
	rep.set("runtime.remote_tiles_per_req", ratio(float64(sc1.RemoteCalls-sc0.RemoteCalls), batches), "count")
	rep.set("rpcx.tile_call_ms_p50", pct(tiles, 0.50), "ms")
	rep.set("rpcx.tile_call_ms_p99", pct(tiles, 0.99), "ms")
	rep.set("runtime.executor_ms_p50", pct(execs, 0.50), "ms")
	transfer := 0.0
	if len(tiles) > 0 {
		transfer = mean(tiles) - mean(execs)
	}
	rep.set("rpcx.transfer_ms_mean", transfer, "ms")
	hedges := float64(st1.Hedges - st0.Hedges)
	rep.set("runtime.hedges", hedges, "count")
	rep.set("runtime.hedge_win_ratio", ratio(float64(st1.HedgeWins-st0.HedgeWins), hedges), "ratio")
	rep.set("limit.retry_budget_refusals", float64(st1.RetryBudgetExhausted-st0.RetryBudgetExhausted), "count")
	rep.set("runtime.limiter_cuts", float64(st1.LimiterCuts-st0.LimiterCuts), "count")
	rep.set("rpcx.redials", float64(st1.Redials-st0.Redials), "count")
	rep.set("process.alloc_kb_per_req", ratio(float64(ph.p1.allocs-ph.p0.allocs)/1024, served), "KiB")
	rep.set("process.gc_cpu_frac", ratio(ph.p1.gcCPUSec-ph.p0.gcCPUSec, (ph.p1.cpu-ph.p0.cpu).Seconds()), "ratio")
	rep.set("process.goroutines_peak", float64(ph.sampler.goroutines), "count")
	if ph.w.openLoop {
		rep.set("loadgen.lag_ms_p99", pct(lag, 0.99), "ms")
	} else {
		rep.set("loadgen.lag_ms_p99", 0, "ms")
	}
	rep.set("loadgen.sent", float64(len(ph.samples)), "count")

	// Self time per layer, per request sent.
	self := tr.selfTime()
	n := float64(len(ph.samples))
	perReq := func(name string) float64 { return ms(self[name]) / n }
	rep.set("self.loadgen_ms_mean", perReq("loadgen.wait"), "ms")
	rep.set("self.request_ms_mean", perReq("request"), "ms")
	rep.set("self.queue_ms_mean", perReq("serve.queue"), "ms")
	rep.set("self.decide_ms_mean", perReq("runtime.decide"), "ms")
	rep.set("self.exec_ms_mean", perReq("runtime.exec"), "ms")
	parts := mean(queue) + mean(decide) + mean(exec)
	if wire {
		parts += mean(wireOver)
	}
	rep.set("trace.e2e_ms_mean", mean(e2e), "ms")
	rep.set("trace.accounted_frac", ratio(parts, mean(e2e)), "ratio")
	rep.set("trace.overhead_ms_p50", pct(e2e, 0.50)-pct(plainE2E, 0.50), "ms")
	rep.set("trace.spans", float64(tr.count()), "count")
}
