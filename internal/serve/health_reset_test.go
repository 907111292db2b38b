// Regression tests for the limiter-reset satellite of the health model: an
// AIMD concurrency limit (and panic streak) learned against a device's sick
// incarnation must not throttle its recovered one. Both return paths are
// covered — heartbeat-detector reinstatement (Down -> Up through the cluster
// glue) and gray-failure reintegration (Quarantined -> Reintegrating ->
// Active through the tracker). External test package like the chaos tests.
package serve_test

import (
	"errors"
	"testing"
	"time"

	"murmuration/internal/cluster"
	"murmuration/internal/health"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/serve"
	"murmuration/internal/supernet"
	"murmuration/internal/testutil"
)

// resetGateway builds a gateway over a two-remote scheduler whose clients
// are nil — no traffic ever dispatches, so the tests can poke limiters and
// drive membership/health transitions without sockets.
func resetGateway(t *testing.T) (*serve.Gateway, *runtime.Runtime, *runtime.Scheduler, *cluster.Manager) {
	t.Helper()
	a := supernet.TinyArch(4)
	net := supernet.New(a, 810)
	sched := runtime.NewScheduler(net, make([]*rpcx.Client, 2))
	rt := runtime.New(sched, liveSpreadDecider(a), runtime.NewStrategyCache(8, 25, 5, 10), nil)
	rt.SetLinkState(0, 100, 5)
	rt.SetLinkState(1, 100, 5)
	probe := cluster.ProbeFunc(func(time.Duration) (time.Duration, uint64, error) { return time.Millisecond, 0, nil })
	// Never Started: the tests drive transitions via MarkDown/ReportSuccess,
	// which publish events to the gateway's cluster glue directly.
	m := cluster.NewManager([]cluster.ProbeFunc{probe, probe}, cluster.Options{})
	g := serve.New(rt, serve.Options{Workers: 1, MaxBatch: 1, MaxLinger: time.Millisecond, QueueDepth: 4})
	return g, rt, sched, m
}

// TestReinstateResetsLimiter covers the detector direction: a device goes
// Down with a cut AIMD limit, and its Up reinstatement must restore the
// limit to Start.
func TestReinstateResetsLimiter(t *testing.T) {
	testutil.CheckGoroutines(t)
	g, rt, sched, m := resetGateway(t)
	defer m.Close()
	g.AttachCluster(m)
	g.AttachHealth(serve.HealthOptions{
		ProbeEvery: -1,
		TickEvery:  time.Hour, // the tests below never need the tick loop
	})
	defer g.Close(time.Second)

	lim := sched.Limiter(1)
	start := lim.Snapshot().Limit
	lim.Cut()
	if cut := lim.Snapshot().Limit; cut >= start {
		t.Fatalf("Cut did not lower the limit: %d -> %d", start, cut)
	}

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", desc)
	}
	m.MarkDown(0)
	waitFor("demotion", func() bool { return !rt.HealthyDevices()[0] })
	m.ReportSuccess(0, time.Millisecond)
	waitFor("reinstatement with a fresh limiter", func() bool {
		return rt.HealthyDevices()[0] && lim.Snapshot().Limit == start
	})
}

// TestReintegrationResetsLimiter covers the tracker direction: a device is
// grayed into quarantine (losing hedge-alternate eligibility), ramps back
// at reduced weight, and completing reintegration must reset its cut AIMD
// limit. The tracker's clock is driven manually on a synthetic timeline —
// transitions fire synchronously from Tick, so every assertion is
// deterministic.
func TestReintegrationResetsLimiter(t *testing.T) {
	testutil.CheckGoroutines(t)
	const win = 50 * time.Millisecond
	g, rt, sched, m := resetGateway(t)
	defer m.Close()
	g.AttachCluster(m)
	tr := g.AttachHealth(serve.HealthOptions{
		Tracker: health.Options{
			Window:           win,
			MinSamples:       2,
			FailureRate:      0.5,
			GrayWindows:      1,
			CleanWindows:     1,
			ReintegrateAfter: win,
			RampWeights:      []float64{0.5},
		},
		ProbeEvery: -1,
		TickEvery:  time.Hour, // quiet: this test owns the tracker's clock
	})
	defer g.Close(time.Second)

	now := time.Unix(0, 0)
	tick := func() { now = now.Add(win); tr.Tick(now) }
	grayWindow := func() {
		for k := 0; k < 4; k++ {
			tr.ObserveFailure(0, now)
			tr.ObserveOK(1, time.Millisecond, now)
		}
		tick()
	}
	cleanWindow := func() {
		for k := 0; k < 4; k++ {
			tr.ObserveOK(0, time.Millisecond, now)
			tr.ObserveOK(1, time.Millisecond, now)
		}
		tick()
	}
	tr.Tick(now) // anchor the window clock

	grayWindow() // Active -> Probation
	grayWindow() // Probation -> Quarantined
	if st := tr.StateOf(0); st != health.Quarantined {
		t.Fatalf("after two gray windows: %v, want Quarantined", st)
	}
	if !rt.QuarantinedDevices()[0] {
		t.Fatal("quarantine did not reach the runtime mask")
	}
	// Hedge-alternate eligibility is revoked: with device 2 as primary, the
	// only alternate would be device 1, and it is quarantined.
	if alt := rt.AlternateFor(2); alt != 0 {
		t.Fatalf("AlternateFor(2) = %d while device 1 is quarantined, want 0", alt)
	}

	lim := sched.Limiter(1)
	start := lim.Snapshot().Limit
	lim.Cut()

	cleanWindow() // earns the clean streak; dwell also elapses -> Reintegrating
	if st := tr.StateOf(0); st != health.Reintegrating {
		t.Fatalf("after a clean window past the dwell: %v, want Reintegrating", st)
	}
	if w := tr.Weight(0); w != 0.5 {
		t.Fatalf("ramp weight %v, want 0.5 — reintegration must not absorb full traffic at once", w)
	}
	if rt.QuarantinedDevices()[0] {
		t.Fatal("reintegrating device still masked out of placement")
	}
	if got := lim.Snapshot().Limit; got >= start {
		t.Fatalf("limit %d already restored during the ramp, want the reset only on completion", got)
	}

	cleanWindow() // ramp complete -> Active, limiter reset fires synchronously
	if st := tr.StateOf(0); st != health.Active {
		t.Fatalf("after the ramp: %v, want Active", st)
	}
	if got := lim.Snapshot().Limit; got != start {
		t.Fatalf("completed reintegration left the limit at %d, want %d", got, start)
	}
	if w := tr.Weight(0); w != 1 {
		t.Fatalf("active weight %v, want 1", w)
	}
	if alt := rt.AlternateFor(2); alt != 1 {
		t.Fatalf("AlternateFor(2) = %d after reintegration, want 1", alt)
	}
	if c := tr.Counters(); c.Reintegrations != 1 {
		t.Fatalf("counters %+v, want exactly one completed reintegration", c)
	}
}

// transitionHarness drives one resetGateway through eligibility transitions
// of remote device 1 (cluster member 0) and, where a row needs it, device 2.
type transitionHarness struct {
	t   *testing.T
	g   *serve.Gateway
	rt  *runtime.Runtime
	m   *cluster.Manager
	tr  *health.Tracker
	now time.Time // the tracker's synthetic clock (rows that own it)

	waits, rewarms uint64 // TransitionCosts at the last settle
}

func (h *transitionHarness) waitFor(desc string, cond func() bool) {
	h.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			h.t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// settle waits for the transition just driven to cost exactly waits
// wait-estimate resets and rewarms rewarm requests, then checks that
// nothing more trickles in.
func (h *transitionHarness) settle(waits, rewarms uint64) {
	h.t.Helper()
	wantW, wantR := h.waits+waits, h.rewarms+rewarms
	h.waitFor("transition costs", func() bool {
		w, r := h.g.TransitionCosts()
		return w >= wantW && r >= wantR
	})
	time.Sleep(30 * time.Millisecond) // longer than the rewarm jitter
	if w, r := h.g.TransitionCosts(); w != wantW || r != wantR {
		h.t.Fatalf("transition cost %d wait resets / %d rewarms, want %d / %d",
			w-h.waits, r-h.rewarms, waits, rewarms)
	}
	h.waits, h.rewarms = wantW, wantR
}

// window feeds member 0 one tracker window of failures (gray) or successes
// against a clean member 1, then rolls the window.
func (h *transitionHarness) window(gray bool) {
	for k := 0; k < 4; k++ {
		if gray {
			h.tr.ObserveFailure(0, h.now)
		} else {
			h.tr.ObserveOK(0, time.Millisecond, h.now)
		}
		h.tr.ObserveOK(1, time.Millisecond, h.now)
	}
	h.now = h.now.Add(50 * time.Millisecond)
	h.tr.Tick(h.now)
}

// held drives a cluster Up of member 0 that the flap damper refuses.
func (h *transitionHarness) held() {
	before := h.g.Stats().FlapSuppressed
	h.m.ReportSuccess(0, time.Millisecond)
	h.waitFor("damper suppression", func() bool { return h.g.Stats().FlapSuppressed > before })
}

// inPlacement reports whether placement device dev is eligible in each of
// the runtime's three readers: the decider's constraint, the sanitized
// placement of a resolved strategy, and the hedge-alternate choice.
func (h *transitionHarness) inPlacement(dev int) (constraint, placement, alternate bool) {
	h.t.Helper()
	slo := chaosLatSLO(100)
	constraint = h.rt.ConstraintFor(slo).BandwidthMbps[dev-1] > 1
	res, err := h.rt.ResolveFor(slo)
	if err != nil {
		h.t.Fatal(err)
	}
	for _, layer := range res.Decision.Placement.Devices {
		for _, d := range layer {
			placement = placement || d == dev
		}
	}
	alternate = h.rt.AlternateFor(3-dev) == dev
	return constraint, placement, alternate
}

// TestEligibilityTransitions is the behaviour table of the gateway's device
// eligibility funnel. For every entry path that moves a device out of or
// back into placement it pins the runtime views (down, quarantined, and
// eligibility in constraints, placements and hedge alternates), the cache
// invalidation epochs bumped, whether each device's AIMD limiter was reset,
// and the wait-estimate resets and rewarms the transition cost.
func TestEligibilityTransitions(t *testing.T) {
	type want struct {
		healthy, quarantined [2]bool
		epochs               uint64
		limiterReset         [2]bool
		waits, rewarms       uint64
	}
	down := func(members ...int) func(h *transitionHarness) {
		return func(h *transitionHarness) { h.m.MarkDownBatch(members) }
	}
	quarantine := func(h *transitionHarness) {
		h.window(true) // Active -> Probation: full traffic, no serving-plane change
		h.window(true) // Probation -> Quarantined
	}
	// Setup steps settle at their own cost, which the rows below pin.
	then := func(steps ...func(h *transitionHarness)) func(h *transitionHarness) {
		return func(h *transitionHarness) {
			for _, step := range steps {
				before := h.g.Stats().FlapSuppressed
				step(h)
				if h.g.Stats().FlapSuppressed > before {
					h.settle(0, 0)
				} else {
					h.settle(1, 1)
				}
			}
		}
	}
	rows := []struct {
		name string
		// damped rows run the health tick loop on real time with a damper
		// that suppresses the second flip inside one half-life; the other
		// rows own the tracker's clock.
		damped bool
		setup  func(h *transitionHarness)
		drive  func(h *transitionHarness)
		want   want
	}{
		{
			name:  "data-path device error",
			drive: func(h *transitionHarness) { h.g.NoteDeviceError(1, errors.New("injected")) },
			want:  want{healthy: [2]bool{false, true}, epochs: 1, waits: 1, rewarms: 1},
		},
		{
			name:  "cluster Down",
			drive: down(0),
			want:  want{healthy: [2]bool{false, true}, epochs: 1, waits: 1, rewarms: 1},
		},
		{
			name:  "cluster mass Down is one batch",
			drive: down(0, 1),
			want:  want{healthy: [2]bool{false, false}, epochs: 2, waits: 1, rewarms: 1},
		},
		{
			name:  "cluster Up",
			setup: then(down(0)),
			drive: func(h *transitionHarness) { h.m.ReportSuccess(0, time.Millisecond) },
			want: want{healthy: [2]bool{true, true}, limiterReset: [2]bool{true, false},
				waits: 1, rewarms: 1},
		},
		{
			name:   "damper-held Up",
			damped: true,
			setup:  then(down(0)),
			drive:  (*transitionHarness).held,
			want:   want{healthy: [2]bool{false, true}},
		},
		{
			name:   "damper release",
			damped: true,
			setup:  then(down(0), (*transitionHarness).held),
			drive: func(h *transitionHarness) {
				h.waitFor("damper release", func() bool { return h.rt.HealthyDevices()[0] })
			},
			want: want{healthy: [2]bool{true, true}, limiterReset: [2]bool{true, false},
				waits: 1, rewarms: 1},
		},
		{
			name:  "staggered mass Up",
			setup: then(down(0, 1)),
			drive: func(h *transitionHarness) {
				h.m.MarkUpBatch([]int{0, 1})
				h.waitFor("first reinstatement", func() bool { return h.rt.HealthyDevices()[0] })
				if h.rt.HealthyDevices()[1] {
					h.t.Fatal("second device rejoined without its stagger delay")
				}
				h.waitFor("staggered reinstatement", func() bool { return h.rt.HealthyDevices()[1] })
				if n := h.g.Stats().StaggeredReintegrations; n != 1 {
					h.t.Fatalf("StaggeredReintegrations = %d, want 1", n)
				}
			},
			want: want{healthy: [2]bool{true, true}, limiterReset: [2]bool{true, true},
				waits: 2, rewarms: 2},
		},
		{
			// A restart takes the device out for reconfiguration and brings
			// it back: one funnel call each way.
			name: "restart",
			setup: func(h *transitionHarness) {
				h.m.ReportHeartbeat(0, time.Millisecond, 1) // learn the incarnation
			},
			drive: func(h *transitionHarness) {
				h.m.ReportHeartbeat(0, time.Millisecond, 2)
				h.waitFor("restart handled", func() bool {
					return h.g.Stats().Restarts == 1 && h.rt.HealthyDevices()[0]
				})
			},
			want: want{healthy: [2]bool{true, true}, epochs: 1, limiterReset: [2]bool{true, false},
				waits: 2, rewarms: 2},
		},
		{
			name:  "quarantine",
			drive: quarantine,
			want: want{healthy: [2]bool{true, true}, quarantined: [2]bool{true, false},
				epochs: 1, waits: 1, rewarms: 1},
		},
		{
			name:  "reintegration start",
			setup: then(quarantine),
			drive: func(h *transitionHarness) { h.window(false) },
			want:  want{healthy: [2]bool{true, true}, waits: 1, rewarms: 1},
		},
		{
			name:  "ramp completion",
			setup: then(quarantine, func(h *transitionHarness) { h.window(false) }),
			drive: func(h *transitionHarness) { h.window(false) },
			want: want{healthy: [2]bool{true, true}, limiterReset: [2]bool{true, false},
				waits: 1, rewarms: 1},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			g, rt, sched, m := resetGateway(t)
			defer m.Close()
			g.AttachCluster(m)
			opts := serve.HealthOptions{
				Tracker: health.Options{
					Window:           50 * time.Millisecond,
					MinSamples:       2,
					FailureRate:      0.5,
					GrayWindows:      1,
					CleanWindows:     1,
					ReintegrateAfter: 50 * time.Millisecond,
					RampWeights:      []float64{0.5},
				},
				ProbeEvery: -1,
				TickEvery:  time.Hour,
			}
			if row.damped {
				opts.TickEvery = 10 * time.Millisecond
				opts.Damper = health.DamperOptions{Penalty: 1000, SuppressThreshold: 1500,
					HalfLife: 300 * time.Millisecond, HoldDown: time.Millisecond}
			}
			tr := g.AttachHealth(opts)
			defer g.Close(time.Second)
			h := &transitionHarness{t: t, g: g, rt: rt, m: m, tr: tr, now: time.Unix(0, 0)}
			if !row.damped {
				tr.Tick(h.now) // anchor the synthetic window clock
			}
			if row.setup != nil {
				row.setup(h)
			}

			var start [2]int
			for i := range start {
				lim := sched.Limiter(i + 1)
				start[i] = lim.Snapshot().Limit
				lim.Cut()
			}
			epochs := g.Stats().InvalidationEpochs
			w := row.want
			row.drive(h)
			h.settle(w.waits, w.rewarms)

			if n := g.Stats().InvalidationEpochs - epochs; n != w.epochs {
				t.Errorf("invalidation epochs bumped %d times, want %d", n, w.epochs)
			}
			healthy, quarantined := rt.HealthyDevices(), rt.QuarantinedDevices()
			for i := 0; i < 2; i++ {
				if healthy[i] != w.healthy[i] || quarantined[i] != w.quarantined[i] {
					t.Errorf("device %d: healthy=%v quarantined=%v, want %v/%v",
						i+1, healthy[i], quarantined[i], w.healthy[i], w.quarantined[i])
				}
				in := w.healthy[i] && !w.quarantined[i]
				if c, p, a := h.inPlacement(i + 1); c != in || p != in || a != in {
					t.Errorf("device %d eligible in constraint=%v placement=%v alternate=%v, want %v",
						i+1, c, p, a, in)
				}
				if reset := sched.Limiter(i+1).Snapshot().Limit == start[i]; reset != w.limiterReset[i] {
					t.Errorf("device %d limiter reset = %v, want %v", i+1, reset, w.limiterReset[i])
				}
			}
		})
	}
}
