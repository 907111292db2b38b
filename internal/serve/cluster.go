package serve

import (
	"time"

	"murmuration/internal/cluster"
	"murmuration/internal/runtime"
)

// Failover glue between the gateway and the cluster layer.
//
// Detection is two-pronged: the data path reacts synchronously the moment a
// batch fails with a runtime.DeviceError (noteDeviceError), while the
// heartbeat detector (AttachCluster) catches devices that die between
// requests and — crucially — is the only path that reintegrates a device once
// its heartbeats resume.

// deviceOut and deviceIn are the one funnel for device eligibility: every
// path that takes a device out of placement or returns it goes through them,
// and they own the side effects. The runtime write strands the device's
// cached strategies on the way out; on the way back from Down the AIMD limit
// and panic streak learned against the failed device are reset. Either way
// batch cost changed regime, so the wait estimates reset and one async
// rewarm re-primes the cache — once per call, however many members moved.
// Call sites keep only their own policy (damper hold, stagger delay,
// fence-first restart, stall attribution).
func (g *Gateway) deviceOut(why runtime.OutReason, members ...int) {
	for _, i := range members {
		g.rt.SetDeviceOut(i, why, true)
	}
	g.ResetWaitEstimates()
	g.rewarmAsync()
}

// deviceIn clears reason why for member. Leaving quarantine only starts the
// reintegration ramp at reduced weight, so the limiter keeps its cut until
// the ramp completes, which calls deviceIn with no reason to clear.
func (g *Gateway) deviceIn(why runtime.OutReason, member int) {
	g.rt.SetDeviceOut(member, why, false)
	if why != runtime.OutQuarantined {
		g.rt.Scheduler.ResetDevice(member + 1)
	}
	g.ResetWaitEstimates()
	g.rewarmAsync()
}

// noteDeviceError reacts to a device-attributed batch failure: take the
// device out of placement so the failover re-resolve avoids it, and feed the
// observation to the failure detector so proactive probing converges faster.
func (g *Gateway) noteDeviceError(de *runtime.DeviceError) {
	// Placement device d >= 1 is remote index d-1 (cluster member d-1).
	idx := de.Device - 1
	g.deviceOut(runtime.OutDown, idx)
	g.mu.Lock()
	m := g.cluster
	hook := g.opts.OnDeviceError
	g.mu.Unlock()
	if m != nil {
		m.ReportFailure(idx)
	}
	if hook != nil {
		hook(de.Device, de.Err)
	}
}

// AttachCluster subscribes the gateway to a failure detector whose member i
// is the scheduler's remote device i+1. On Down the device is demoted and its
// cached strategies invalidated; on recovery it is reinstated. Either way the
// strategy for the gateway's global SLO is re-resolved (re-warmed) so the
// next batch doesn't pay the decide cost. The event loop exits when the
// manager is closed; close the manager before or after the gateway, order
// does not matter.
//
// The subscription is the batch channel: same-tick transitions (a mass kill
// via MarkDownBatch, a sweep that expires several members at once) arrive as
// one slice, so a correlated loss of K devices costs one demote/invalidate
// pass, one wait-estimate reset, and one rewarm — not K of each.
func (g *Gateway) AttachCluster(m *cluster.Manager) {
	g.mu.Lock()
	g.cluster = m
	g.mu.Unlock()
	batches := m.SubscribeBatch()
	go func() {
		for evs := range batches {
			g.handleClusterBatch(evs)
		}
	}()
}

// handleClusterBatch applies one coalesced batch of cluster transitions.
// Per-device policy (SLI ledger, damper, correlated-loss detector) runs per
// event; all Downs leave placement in one deviceOut call, so the batch costs
// one wait-estimate reset and one rewarm. Mass reinstatements are staggered:
// the first device rejoins immediately, device i after i stagger periods
// (storm.go), so returning capacity ramps instead of slamming.
func (g *Gateway) handleClusterBatch(evs []cluster.Event) {
	g.mu.Lock()
	tr, dmp := g.health, g.damper
	g.mu.Unlock()
	var downs []int
	var ups []cluster.Event
	for _, ev := range evs {
		if ev.Restart {
			g.handleRestart(ev)
			continue
		}
		switch ev.To {
		case cluster.Down:
			// A Down is always honored (safety first); it also charges
			// one membership flip to the damper.
			if dmp != nil {
				dmp.RecordFlip(ev.Member, ev.At)
			}
			if tr != nil {
				tr.SetUp(ev.Member, false)
			}
			downs = append(downs, ev.Member)
			g.noteDown(ev.At)
		case cluster.Up:
			if tr != nil {
				tr.SetUp(ev.Member, true)
			}
			if dmp != nil {
				// A recovery from Down is the other half of a flap.
				if ev.From == cluster.Down {
					dmp.RecordFlip(ev.Member, ev.At)
				}
				if dmp.Suppressed(ev.Member, ev.At) {
					// Flap damping: refuse the reinstatement. The health
					// tick loop (health.go) releases the device once the
					// penalty decays below the reuse threshold.
					g.mu.Lock()
					if ev.Member < len(g.suppressHeld) {
						g.suppressHeld[ev.Member] = true
					}
					g.mu.Unlock()
					continue
				}
			}
			ups = append(ups, ev)
		case cluster.Suspect:
			// No action: the device may still be serving. The data path
			// demotes it immediately if a request actually fails there.
		}
	}
	if len(downs) > 0 {
		g.deviceOut(runtime.OutDown, downs...)
	}
	if len(ups) > 0 {
		// The first recovered device reinstates now (a lone recovery behaves
		// exactly as before); the rest of a mass recovery is staggered.
		g.deviceIn(runtime.OutDown, ups[0].Member)
		for i, ev := range ups[1:] {
			g.staggerReinstate(ev.Member, time.Duration(i+1)*g.opts.ReintegrationStagger)
		}
	}
}

// handleRestart reconfigures around a detected incarnation change — an
// atomic Down→Up. The device never answered "dead", but the process behind it
// is new: every piece of state learned against the old process is stale, and
// every response still in flight from it must be fenced, not delivered.
// Order matters: the expected incarnation is raised *first*, so a stale
// response racing this handler fails the scheduler's fence check rather than
// slipping through mid-reconfiguration.
func (g *Gateway) handleRestart(ev cluster.Event) {
	sched := g.rt.Scheduler
	dev := ev.Member + 1
	// 1. Fence: responses handshaken with the old incarnation are now dropped.
	if ev.Incarnation != 0 {
		sched.SetDeviceIncarnation(dev, ev.Incarnation)
	}
	// 2. Demote while reconfiguring: strategies placing work there are stale
	// (the new process has cold caches and possibly different capabilities).
	g.deviceOut(runtime.OutDown, ev.Member)
	// 3. The data connection may still terminate at the dead process's socket
	// (a zombie that keeps its listener): poison it so the next dispatch
	// re-dials — and re-handshakes — to the live incarnation. Asynchronous
	// because ForceRedial serializes behind any in-flight call (that call's
	// response will be fenced on completion, which poisons the client too).
	if ev.Member >= 0 && ev.Member < len(sched.Remotes) && sched.Remotes[ev.Member] != nil {
		go sched.Remotes[ev.Member].ForceRedial()
	}
	g.mu.Lock()
	g.stats.Restarts++
	hook := g.opts.OnRestart
	g.mu.Unlock()
	// 4. Re-negotiate capabilities (link probe, monitor refresh) before the
	// device takes traffic again.
	if hook != nil {
		hook(dev, ev.Incarnation)
	}
	// 5. Reinstate: the new incarnation serves from here on, with adaptive
	// state reset — what was learned against the old process does not
	// transfer.
	g.deviceIn(runtime.OutDown, ev.Member)
}
