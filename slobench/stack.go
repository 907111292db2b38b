package main

import (
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"murmuration/internal/cluster"
	"murmuration/internal/device"
	"murmuration/internal/health"
	"murmuration/internal/limit"
	"murmuration/internal/monitor"
	"murmuration/internal/nas"
	"murmuration/internal/netem"
	"murmuration/internal/rl/env"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/serve"
	"murmuration/internal/supernet"
	"murmuration/internal/watchdog"
)

// Gateway defaults mirrored from cmd/murmuration-gateway's flags. Every value
// below is the flag's default; the deviations this benchmark makes are the
// stackOptions fields, documented in BENCHMARK.json and README.md.
const (
	archClasses    = 4
	weightSeed     = 42
	numDaemons     = 3
	defaultBwMbps  = 100
	defaultDelayMs = 10
	remoteTimeout  = 30 * time.Second
	closeGrace     = 2 * time.Second
)

// stackOptions are the per-workload choices that differ between workloads.
type stackOptions struct {
	// shaped puts the default netem shaper (100 Mb/s, 10 ms) on the data
	// clients; fanout turns it off so emulated sleeps do not hide transport.
	shaped bool
	// pinned, when non-nil, replaces structured search with a decider that
	// always answers this decision.
	pinned func(*supernet.Arch) *env.Decision
	// front serves the gateway over rpcx on loopback (lone-wire).
	front bool
	// tr records executor and tile spans when non-nil.
	tr *tracer
}

// stack is one gateway process plus three loopback device daemons.
type stack struct {
	arch    *supernet.Arch
	net     *supernet.Supernet // the gateway's replica; also the oracle's reference model
	rt      *runtime.Runtime
	gw      *serve.Gateway
	decider *recorder
	front   string // gateway rpcx address when opts.front

	closers []func() // run in reverse order by close
}

func newStack(opts stackOptions) (*stack, error) {
	s := &stack{arch: supernet.TinyArch(archClasses)}
	built := false
	defer func() {
		if !built {
			s.close()
		}
	}()
	s.net = supernet.New(s.arch, weightSeed)

	var addrs []string
	for i := 0; i < numDaemons; i++ {
		addr, err := s.startDaemon(opts.tr)
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, addr)
	}

	kinds := []device.Kind{device.RaspberryPi4}
	var clients []*rpcx.Client
	var monitors []*monitor.LinkMonitor
	var probes []cluster.ProbeFunc
	for _, addr := range addrs {
		var shaper *netem.Shaper
		if opts.shaped {
			shaper = netem.NewShaper(defaultBwMbps, defaultDelayMs*time.Millisecond)
		}
		cl, err := rpcx.Dial(addr, shaper)
		if err != nil {
			return nil, fmt.Errorf("dial daemon %s: %w", addr, err)
		}
		s.closers = append(s.closers, func() { cl.Close() })
		cl.SetRetryPolicy(rpcx.RetryPolicy{MaxAttempts: 3})
		cl.MarkIdempotent(runtime.ExecBlockMethod, monitor.PingMethod, monitor.BulkMethod)
		cl.SetChecksum(true)
		cl.SetMaxFrameSize(rpcx.DefaultMaxFrameSize)
		cl.SetProgressPolicy(rpcx.ProgressPolicy{Tick: 100 * time.Millisecond, MinBytes: 1})
		if _, err := cl.Handshake(remoteTimeout); err != nil {
			return nil, fmt.Errorf("handshake %s: %w", addr, err)
		}
		clients = append(clients, cl)
		// Created but never probed: a probe sample would shadow the link
		// state lone-wire sets through Runtime.SetLinkState.
		monitors = append(monitors, monitor.NewLinkMonitor(cl))
		kinds = append(kinds, device.RaspberryPi4)

		hb, err := rpcx.Dial(addr, nil)
		if err != nil {
			return nil, fmt.Errorf("dial heartbeat %s: %w", addr, err)
		}
		s.closers = append(s.closers, func() { hb.Close() })
		hb.SetRetryPolicy(rpcx.RetryPolicy{MaxAttempts: 1})
		hb.SetChecksum(true)
		hb.SetMaxFrameSize(rpcx.DefaultMaxFrameSize)
		probes = append(probes, cluster.PingProbe(hb))
	}

	e := env.New(s.arch, nas.NewCalibratedPredictor(s.arch), kinds)
	s.decider = &recorder{e: e, tr: opts.tr, byBucket: map[string]map[string]*env.Decision{}}
	if opts.pinned != nil {
		s.decider.pinned = opts.pinned(s.arch)
	}

	sched := runtime.NewScheduler(s.net, clients)
	sched.RemoteTimeout = remoteTimeout
	sched.Hedge = &runtime.HedgePolicy{BudgetFrac: 0.05}
	sched.SetRetryBudget(limit.NewBudget(limit.BudgetOptions{Ratio: 0.1}))
	cache := runtime.NewStrategyCache(64, 25, 5, 10)
	s.decider.cache = cache
	s.rt = runtime.New(sched, s.decider, cache, monitors)
	for i := range addrs {
		if err := s.rt.SetLinkState(i, defaultBwMbps, defaultDelayMs); err != nil {
			return nil, err
		}
	}

	s.gw = serve.New(s.rt, serve.Options{
		Workers:              2,
		MaxBatch:             8,
		MaxLinger:            2 * time.Millisecond,
		QueueDepth:           64,
		MaxRung:              runtime.DefaultMaxRung,
		LadderHysteresis:     runtime.DefaultLadderHysteresis,
		CorrelatedLossK:      2,
		CorrelatedLossWindow: 2 * time.Second,
		RewarmConcurrency:    2,
		OnDeviceError: func(dev int, err error) {
			log.Printf("device %d failed a batch (failing over): %v", dev, err)
		},
	})
	s.closers = append(s.closers, func() { s.gw.Close(closeGrace) })
	s.gw.AttachHealth(serve.HealthOptions{
		Tracker: health.Options{
			Window:           time.Second,
			LatencyFactor:    3,
			FailureRate:      0.30,
			GrayWindows:      3,
			ReintegrateAfter: 10 * time.Second,
		},
		Damper:     health.DamperOptions{SuppressThreshold: 2500, HalfLife: 10 * time.Second},
		ProbeEvery: 500 * time.Millisecond,
	})
	if opts.tr != nil {
		// Chained after AttachHealth so the health ledger still sees every
		// tile outcome.
		observe := sched.OnTileOutcome
		sched.OnTileOutcome = func(dev int, elapsed time.Duration, err error) {
			end := time.Now()
			opts.tr.tile(end.Add(-elapsed), end)
			observe(dev, elapsed, err)
		}
	}

	mgr := cluster.NewManager(probes, cluster.Options{HeartbeatInterval: 500 * time.Millisecond})
	s.gw.AttachCluster(mgr)
	mgr.Start()
	s.closers = append(s.closers, mgr.Close)

	wd := watchdog.New(watchdog.Options{
		Interval:      250 * time.Millisecond,
		MaxGoroutines: 20000,
		MaxHeapBytes:  4096 << 20,
		OnBrownout: func(reason string) {
			log.Printf("watchdog: brownout (%s)", reason)
			s.gw.SetBrownout(true)
		},
		OnClear: func() { s.gw.SetBrownout(false) },
	})
	s.gw.AttachWatchdog(wd)
	wd.Start()
	s.closers = append(s.closers, wd.Close)

	if opts.front {
		srv := newServer()
		s.gw.Register(srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen gateway: %w", err)
		}
		s.closers = append(s.closers, func() { srv.Shutdown(closeGrace) })
		s.front = addr
	}
	built = true
	return s, nil
}

// newServer returns an rpcx server with the commands' default limits.
func newServer() *rpcx.Server {
	srv := rpcx.NewServer()
	srv.MaxFrameSize = rpcx.DefaultMaxFrameSize
	srv.SetChecksum(true)
	srv.ConnIdleTimeout = 5 * time.Minute
	srv.WriteTimeout = 30 * time.Second
	srv.MaxInflight = 256
	return srv
}

// startDaemon starts one murmurationd equivalent on loopback: its own
// supernet replica, the block executor, monitor handlers and the cluster
// node's heartbeat handler.
func (s *stack) startDaemon(tr *tracer) (string, error) {
	srv := newServer()
	inc, err := rpcx.MintIncarnation("")
	if err != nil {
		return "", fmt.Errorf("mint incarnation: %w", err)
	}
	srv.SetIncarnation(inc)
	exec := runtime.NewExecutor(supernet.New(s.arch, weightSeed))
	if tr != nil {
		h := exec.ExecBlockHandler()
		srv.Handle(runtime.ExecBlockMethod, func(p []byte) ([]byte, error) {
			start := time.Now()
			out, err := h(p)
			tr.executor(start, time.Now())
			return out, err
		})
	} else {
		exec.Register(srv)
	}
	monitor.RegisterHandlers(srv)
	cluster.NewNode().Register(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen daemon: %w", err)
	}
	s.closers = append(s.closers, func() { srv.Close() })
	return addr, nil
}

// close tears the stack down in reverse construction order.
func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// recorder is the runtime's decider: structured search (the gateway default
// without a policy checkpoint) or a pinned decision. It keeps every decision
// it produced, keyed by the strategy cache's SLO bucket, so the answer oracle
// knows which configurations a request may legitimately have run, and it
// times each search call for the traced run.
type recorder struct {
	e      *env.Env
	pinned *env.Decision
	cache  *runtime.StrategyCache
	tr     *tracer

	mu       sync.Mutex
	byBucket map[string]map[string]*env.Decision // SLO bucket -> config string -> decision
}

// Decide implements runtime.Decider.
func (r *recorder) Decide(c env.Constraint) (*env.Decision, error) {
	start := time.Now()
	d := r.pinned
	var err error
	if d == nil {
		if d, err = env.StructuredSearch(r.e, c); err != nil {
			return nil, err
		}
	}
	end := time.Now()
	if r.tr != nil {
		r.tr.search(start, end)
	}
	b := r.bucket(c)
	r.mu.Lock()
	m := r.byBucket[b]
	if m == nil {
		m = map[string]*env.Decision{}
		r.byBucket[b] = m
	}
	m[d.Config.String()] = d
	r.mu.Unlock()
	return d, nil
}

// bucket is the SLO part of the strategy-cache key: requests whose SLOs share
// it may be served by one cached decision.
func (r *recorder) bucket(c env.Constraint) string {
	key, _, _ := strings.Cut(r.cache.Key(c), "|")
	return key
}

// decisionsFor returns every decision produced for the SLO's bucket.
func (r *recorder) decisionsFor(slo runtime.SLO) []*env.Decision {
	c := env.Constraint{Type: slo.Type}
	if slo.Type == env.LatencySLO {
		c.LatencyMs = slo.Value
	} else {
		c.AccuracyPct = slo.Value
	}
	b := r.bucket(c)
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*env.Decision, 0, len(r.byBucket[b]))
	for _, d := range r.byBucket[b] {
		out = append(out, d)
	}
	return out
}
