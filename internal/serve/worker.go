package serve

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"time"

	"murmuration/internal/limit"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/tensor"
)

// worker is one executor loop: form a batch, run it, repeat until the
// gateway is closed and drained.
func (g *Gateway) worker() {
	// New counted this worker idle before it ran; it stays counted until it
	// takes its first head.
	for counted := true; ; counted = false {
		batch := g.nextBatch(counted)
		if batch == nil {
			return
		}
		g.executeProtected(batch)
	}
}

// panicStackCap bounds the stack capture attached to a recovered worker
// panic's error.
const panicStackCap = 4096

// executeProtected runs one batch with panic isolation: a panic anywhere in
// resolution, degradation, or execution fails that batch — every request
// gets a typed error — and the worker loop survives to take the next batch.
// Delivery is idempotent, so a panic after some outcomes were already sent
// fails only the requests still waiting.
func (g *Gateway) executeProtected(batch []*request) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		stack := make([]byte, panicStackCap)
		stack = stack[:goruntime.Stack(stack, false)]
		g.mu.Lock()
		g.stats.Panics++
		g.mu.Unlock()
		err := fmt.Errorf("serve: batch execution panicked: %v\n%s", r, stack)
		g.finishError(batch, err)
	}()
	g.execute(batch)
}

// nextBatch blocks until work is available and returns a batch of
// compatible requests (same class and strategy key), or nil when the
// gateway is closed and fully drained. After taking a head request it
// lingers for the batch to fill only while no other worker is idle: a spare
// executor means waiting would add latency without buying throughput, so
// the batch goes at once. The linger is bounded by MaxLinger (none when
// negative), by MaxBatch, and never runs past the point where a latency-SLO
// head could still make its deadline. The gate is re-read on every wake-up:
// when another worker turns idle mid-linger, the linger ends at the next
// arrival or the timer. counted reports whether this worker is already
// counted in g.idle.
func (g *Gateway) nextBatch(counted bool) []*request {
	g.mu.Lock()
	var head *request
	for {
		head = g.popHead(time.Now())
		if head != nil {
			break
		}
		if g.closing {
			g.mu.Unlock()
			return nil
		}
		if !counted {
			g.idle++
			counted = true
		}
		g.cond.Wait()
	}
	if counted {
		g.idle--
	}
	batch := append([]*request{head},
		g.collectCompatible(head, g.opts.MaxBatch-1, time.Now())...)
	if len(batch) < g.opts.MaxBatch {
		lingerEnd := time.Now().Add(g.opts.MaxLinger)
		if head.class == ClassLatency {
			// Leave one estimated batch execution of slack before the
			// head's deadline.
			slackEnd := head.deadline.Add(-time.Duration(g.emaBatchSec[head.class] * float64(time.Second)))
			if slackEnd.Before(lingerEnd) {
				lingerEnd = slackEnd
			}
		}
		for len(batch) < g.opts.MaxBatch && !g.closing && g.idle == 0 {
			now := time.Now()
			if !now.Before(lingerEnd) {
				break
			}
			timer := time.AfterFunc(lingerEnd.Sub(now), g.wake)
			g.cond.Wait()
			timer.Stop()
			batch = append(batch,
				g.collectCompatible(head, g.opts.MaxBatch-len(batch), time.Now())...)
		}
	}
	g.mu.Unlock()
	return batch
}

// wake is the linger timer's callback. It broadcasts under g.mu: a worker
// joins the cond's wait list only while it holds g.mu, so an unlocked
// broadcast that fires before the worker reaches Wait would be lost, and the
// worker would sleep until the next arrival — forever, for a lone request.
func (g *Gateway) wake() {
	g.mu.Lock()
	g.cond.Broadcast()
	g.mu.Unlock()
}

// batchDeadline returns the tightest deadline across the batch (zero when
// no request carries one — non-latency classes).
func batchDeadline(batch []*request) time.Time {
	var d time.Time
	for _, r := range batch {
		if r.deadline.IsZero() {
			continue
		}
		if d.IsZero() || r.deadline.Before(d) {
			d = r.deadline
		}
	}
	return d
}

// execute resolves the batch's strategy once, consults the degradation
// ladder against the batch's remaining deadline budget, runs the batched
// inference under that budget, and delivers per-request outcomes.
//
// Two recovery paths run before a batch counts as lost:
//   - A device-attributed error triggers failover — mark the device
//     unhealthy, invalidate its cached strategies, tell the failure
//     detector — and the batch is retried once on a re-resolved strategy
//     (re-degraded at the same rung) before it counts as Failed.
//   - A budget exhaustion (the typed refusal, never a silent late reply)
//     feeds the ladder so the next batch plans a cheaper rung, and the
//     batch's requests are dropped as deadline-missed, not Failed.
func (g *Gateway) execute(batch []*request) {
	start := time.Now()
	deadline := batchDeadline(batch)

	// Queue wait and batch formation already happened on the clock: the
	// budget we plan against is what is left now, not the original SLO.
	var remaining time.Duration
	if !deadline.IsZero() {
		remaining = time.Until(deadline)
		if remaining <= 0 {
			g.dropBatch(batch, ErrDeadlineMissed)
			return
		}
	}

	res, err := g.rt.ResolveFor(batch[0].slo)
	if err != nil {
		g.finishError(batch, err)
		return
	}
	rung := g.ladder.Plan(remaining)

	xs := make([]*tensor.Tensor, len(batch))
	for i, r := range batch {
		xs[i] = r.x
	}
	attemptStart := time.Now()
	var outs []*tensor.Tensor
	outs, res, err = g.runBatch(xs, res, batch[0].slo, rung, deadline)
	if err != nil && errors.Is(err, rpcx.ErrBudgetExhausted) {
		// The budget ran out mid-attempt: teach the ladder this rung is over
		// budget, then spend whatever budget is left on one deeper attempt —
		// runBatch capped the failed attempt below the full budget precisely
		// to keep this fallback affordable. A promotion probe that hits a
		// still-degraded network therefore costs latency, not the request.
		g.ladder.ObserveMiss(rung, time.Since(attemptStart))
		if left := time.Until(deadline); !deadline.IsZero() && left > 5*time.Millisecond {
			if deeper := g.ladder.Plan(left); deeper > rung {
				rung = deeper
				attemptStart = time.Now()
				outs, res, err = g.runBatch(xs, res, batch[0].slo, rung, deadline)
				if err != nil && errors.Is(err, rpcx.ErrBudgetExhausted) {
					g.ladder.ObserveMiss(rung, time.Since(attemptStart))
				}
			}
		}
	}
	execTime := time.Since(start)
	if err != nil {
		if errors.Is(err, rpcx.ErrBudgetExhausted) {
			// Even the fallback ran out of time: drop the batch as missed,
			// not failed — the system refused to be late rather than
			// malfunctioning.
			g.mu.Lock()
			g.stats.BudgetExhausted += uint64(len(batch))
			g.mu.Unlock()
			g.dropBatch(batch, err)
			return
		}
		if errors.Is(err, rpcx.ErrRetryBudget) {
			// The shared retry budget refused the speculative attempt that
			// could have saved this batch. That is storm control doing its
			// job, not a malfunction: the batch is dropped shed-shaped
			// (retryable by the caller once primary traffic refills the
			// bucket), never Failed, and no device is demoted for it.
			g.mu.Lock()
			g.stats.Overloads += uint64(len(batch))
			g.mu.Unlock()
			g.dropBatch(batch, fmt.Errorf("%w: %v", ErrOverloaded, err))
			return
		}
		if errors.Is(err, limit.ErrLimited) || errors.Is(err, rpcx.ErrOverloaded) {
			// An overload refusal — the per-device limiter shed the dispatch,
			// or the daemon's in-flight cap refused it. A refusal is not a
			// malfunction: the batch is dropped (shed-shaped, retryable by
			// the caller), never Failed, and no device is demoted for it.
			g.mu.Lock()
			g.stats.Overloads += uint64(len(batch))
			g.mu.Unlock()
			g.dropBatch(batch, fmt.Errorf("%w: %v", ErrOverloaded, err))
			return
		}
		g.finishError(batch, err)
		return
	}
	// The estimate is the cost of the rung that served, so a fallback serve
	// folds only its own attempt, not the failed probe before it.
	g.ladder.Observe(rung, time.Since(attemptStart), remaining)

	now := time.Now()
	g.mu.Lock()
	class := batch[0].class
	sec := execTime.Seconds()
	if g.emaBatchSec[class] == 0 {
		g.emaBatchSec[class] = sec
	} else {
		g.emaBatchSec[class] = 0.8*g.emaBatchSec[class] + 0.2*sec
	}
	g.stats.Batches++
	g.stats.BatchedRequests += uint64(len(batch))
	if rung > 0 {
		g.stats.Degraded += uint64(len(batch))
		g.stats.DegradedRungs += uint64(rung) * uint64(len(batch))
	}
	if res.Canary {
		g.stats.CanaryServed += uint64(len(batch))
	}
	met := make([]bool, len(batch))
	for i, r := range batch {
		g.stats.Served++
		if r.class == ClassLatency && now.After(r.deadline) {
			g.stats.DeadlineMissed++
			g.stats.ClassMissed[r.class]++
		} else {
			g.stats.ClassMet[r.class]++
			met[i] = true
		}
	}
	tap := g.tap
	g.mu.Unlock()

	// A degraded batch did not execute the policy's decision, so its measured
	// latency must not be credited to the policy's choice sequence.
	choices := res.Choices
	if rung != 0 {
		choices = nil
	}
	for i, r := range batch {
		if tap != nil {
			tap.Offer(OutcomeEvent{
				Kind:          KindServed,
				Class:         r.class,
				SLO:           r.slo,
				Constraint:    res.Constraint,
				Rung:          rung,
				PolicyVersion: res.PolicyVersion,
				Canary:        res.Canary,
				LatencyMs:     now.Sub(r.enqueued).Seconds() * 1000,
				SLOMet:        met[i],
				Choices:       choices,
			})
		}
		g.deliver(r, Outcome{
			Logits:        outs[i],
			QueueWait:     start.Sub(r.enqueued),
			ExecTime:      execTime,
			DecideTime:    res.DecideTime,
			BatchSize:     len(batch),
			CacheHit:      res.CacheHit,
			Rung:          rung,
			PolicyVersion: res.PolicyVersion,
			Canary:        res.Canary,
		})
	}
}

// runBatch executes one attempt of the batch at the given rung, retrying
// once on a device-attributed failure (failover: mark the device, re-resolve,
// re-degrade at the same rung). It returns the resolution actually used so
// the caller reports accurate decide/cache metadata after a failover.
//
// When the ladder still has deeper rungs below the planned one, a
// deadline-bounded attempt is deliberately capped at ~3/5 of the remaining
// budget: if this attempt misses, execute's budget-exhaustion fallback can
// still afford one deeper attempt inside the same deadline. Rung 0 always
// gets the full budget — healthy traffic must not be degraded preemptively.
func (g *Gateway) runBatch(xs []*tensor.Tensor, res *runtime.Resolution, slo runtime.SLO, rung int, deadline time.Time) ([]*tensor.Tensor, *runtime.Resolution, error) {
	budget := budgetLeft(deadline)
	if budget > 0 && rung > 0 && rung < g.ladder.MaxRung() {
		if capped := budget * 3 / 5; capped > 0 {
			budget = capped
		}
	}
	decision := g.rt.DegradeDecision(res.Decision, rung)
	outs, _, err := g.rt.ExecBatchBudget(xs, decision, budget)
	retry := false
	var de *runtime.DeviceError
	switch {
	case err == nil:
	case errors.As(err, &de):
		g.noteDeviceError(de)
		retry = true
	case errors.Is(err, runtime.ErrFenced), errors.Is(err, rpcx.ErrStalled):
		// A fenced response (the device restarted mid-batch) or a stalled
		// transfer (half-open link) fails the attempt but demotes nothing:
		// the fence has already redirected the connection to the live
		// incarnation, and a stall is link-gray evidence the health tracker
		// scores separately. Either way the batch deserves one retry on a
		// re-resolved strategy before it counts as Failed.
		retry = true
	}
	if retry {
		// The failover re-execution is a speculative attempt like any rpcx
		// retry or hedge: it draws from the same shared budget, so a
		// correlated loss cannot multiply every failing batch into double
		// load on the survivors. A refusal keeps the first attempt's error
		// wrapped in the typed retry-budget shed — execute drops the batch
		// shed-shaped, never Failed, and no device is demoted for it.
		if b := g.rt.Scheduler.RetryBudget; b != nil && !b.TryWithdraw() {
			return outs, res, fmt.Errorf("serve: failover retry suppressed: %w (cause: %v)",
				rpcx.ErrRetryBudget, err)
		}
		g.mu.Lock()
		g.stats.FailoverAttempts++
		g.mu.Unlock()
		if res2, rerr := g.rt.ResolveFor(slo); rerr == nil {
			res = res2
			decision = g.rt.DegradeDecision(res.Decision, rung)
			outs, _, err = g.rt.ExecBatchBudget(xs, decision, budgetLeft(deadline))
			if err == nil {
				g.mu.Lock()
				g.stats.Failovers++
				g.mu.Unlock()
			}
		}
	}
	return outs, res, err
}

// budgetLeft converts a deadline into the budget remaining right now (0 =
// no deadline).
func budgetLeft(deadline time.Time) time.Duration {
	if deadline.IsZero() {
		return 0
	}
	if left := time.Until(deadline); left > 0 {
		return left
	}
	// Expired between planning and dispatch: pass the smallest positive
	// budget so execution fails fast with the typed budget error instead of
	// running unbounded.
	return time.Nanosecond
}

// dropBatch abandons every request of an admitted batch that will not (or
// did not) execute in time, with drop/deadline accounting.
func (g *Gateway) dropBatch(batch []*request, err error) {
	g.mu.Lock()
	for _, r := range batch {
		g.failLocked(r, err)
	}
	g.mu.Unlock()
}

// finishError fails every request of a batch whose execution errored.
// Delivery is idempotent: requests that already received their outcome
// (e.g. before a mid-delivery panic) are neither re-sent nor re-counted.
func (g *Gateway) finishError(batch []*request, err error) {
	for _, r := range batch {
		if g.deliver(r, Outcome{Err: err}) {
			g.mu.Lock()
			g.stats.Failed++
			g.stats.ClassMissed[r.class]++
			g.offerLocked(OutcomeEvent{Kind: KindFailed, Class: r.class, SLO: r.slo})
			g.mu.Unlock()
		}
	}
}
