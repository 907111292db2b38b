package serve

import (
	"math/rand"
	"time"

	"murmuration/internal/cluster"
	"murmuration/internal/runtime"
)

// Recovery-storm smoothing: the serving half of the correlated-failure
// immunity plane. The retry budget (limit.Budget, wired through rpcx and the
// scheduler) bounds how hard the data path amplifies a correlated loss;
// this file bounds how hard the control path amplifies one:
//
//   - A correlated-loss detector watches Down transitions. At least K inside
//     a sliding window means the survivors are about to absorb the victims'
//     traffic, so admission tightens one ladder rung pre-emptively — batches
//     cheapen before the wave lands, not after the first misses.
//   - Strategy rewarms after topology changes are asynchronous, jittered,
//     and concurrency-capped, so a mass reinstatement cannot stampede the
//     decider with simultaneous re-resolutions.
//   - Mass reinstatements are staggered (cluster.go): one cluster batch that
//     returns n devices rejoins them one ReintegrationStagger apart.

// stormRung is how many ladder rungs a correlated-loss detection adds to the
// floor. It composes additively with a watchdog brownout's BrownoutRung —
// resource pressure plus a correlated loss is strictly worse than either —
// and the ladder clamps the sum to its own max rung.
const stormRung = 1

// rewarmJitter bounds the random delay before an async rewarm fires, so the
// rewarms of near-simultaneous topology changes decorrelate instead of
// hitting the decider in one pulse.
const rewarmJitter = 20 * time.Millisecond

// applyFloor recomputes the degradation-ladder floor from the active
// pressure signals (brownout, correlated-loss tighten). Every writer of
// either signal funnels through here so the signals compose instead of
// overwriting each other's floor.
func (g *Gateway) applyFloor() {
	g.mu.Lock()
	floor := 0
	if g.brownout {
		floor += BrownoutRung
	}
	if g.stormTight {
		floor += stormRung
	}
	g.mu.Unlock()
	g.ladder.SetFloor(floor)
}

// noteDown feeds one Down transition into the correlated-loss detector.
// When at least CorrelatedLossK Downs land inside CorrelatedLossWindow, the
// gateway records a correlated-loss event, raises the ladder floor by
// stormRung, and holds the tighten for CorrelatedLossHold past the last
// detection. Detection re-arms afterwards: the next event needs K fresh
// Downs, so a long outage is one event, not one per straggler.
func (g *Gateway) noteDown(at time.Time) {
	g.mu.Lock()
	if g.opts.CorrelatedLossK < 0 {
		g.mu.Unlock()
		return
	}
	if at.IsZero() {
		at = time.Now()
	}
	cutoff := at.Add(-g.opts.CorrelatedLossWindow)
	keep := g.downTimes[:0]
	for _, t := range g.downTimes {
		if t.After(cutoff) {
			keep = append(keep, t)
		}
	}
	g.downTimes = append(keep, at)
	if len(g.downTimes) < g.opts.CorrelatedLossK {
		g.mu.Unlock()
		return
	}
	g.stats.CorrelatedLossEvents++
	tighten := !g.stormTight
	g.stormTight = true
	g.downTimes = g.downTimes[:0]
	if g.stormClear != nil {
		g.stormClear.Stop()
	}
	g.stormClear = time.AfterFunc(g.opts.CorrelatedLossHold, g.stormRelease)
	g.mu.Unlock()
	if tighten {
		g.applyFloor()
	}
}

// stormRelease drops the correlated-loss tighten once the hold elapses; the
// ladder then climbs home through its normal hysteresis.
func (g *Gateway) stormRelease() {
	g.mu.Lock()
	was := g.stormTight
	g.stormTight = false
	g.mu.Unlock()
	if was {
		g.applyFloor()
	}
}

// rewarmAsync schedules one jittered re-resolve of the strategy for the
// gateway's global SLO, priming the cache after a topology change, capped at
// RewarmConcurrency in flight. A refused request is dropped, not queued:
// any rewarm that runs resolves under the device records current at that
// moment, so a rewarm already in flight (or about to run) covers the
// refused one's work. Resolve errors are deliberately ignored — the next
// request resolves (and surfaces) them.
func (g *Gateway) rewarmAsync() {
	g.mu.Lock()
	if g.closing {
		g.mu.Unlock()
		return
	}
	g.rewarms++
	// Add under mu, ordered before Close's Wait: Close sets closing first,
	// so no Add can race past a Wait that already started.
	g.rewarmWG.Add(1)
	g.mu.Unlock()
	select {
	case g.rewarmSem <- struct{}{}:
	default:
		g.rewarmWG.Done()
		return
	}
	go func() {
		defer g.rewarmWG.Done()
		defer func() { <-g.rewarmSem }()
		time.Sleep(time.Duration(rand.Int63n(int64(rewarmJitter))))
		if slo := g.rt.SLO(); slo.Value > 0 {
			g.rt.ResolveFor(slo)
		}
	}()
}

// staggerReinstate schedules a deferred reinstatement delay from now. The
// timer re-checks the detector at fire time: a device that went Down again
// while it waited stays down (its next Up event restarts the process).
func (g *Gateway) staggerReinstate(member int, delay time.Duration) {
	g.mu.Lock()
	if g.closing {
		g.mu.Unlock()
		return
	}
	g.stats.StaggeredReintegrations++
	t := time.AfterFunc(delay, func() {
		g.mu.Lock()
		closing, m := g.closing, g.cluster
		g.mu.Unlock()
		if closing {
			return
		}
		if m != nil && m.StateOf(member) != cluster.Up {
			return
		}
		g.deviceIn(runtime.OutDown, member)
	})
	g.staggerTimers = append(g.staggerTimers, t)
	g.mu.Unlock()
}
