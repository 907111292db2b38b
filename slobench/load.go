package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"murmuration/internal/rl/env"
	"murmuration/internal/runtime"
	"murmuration/internal/scenario"
	"murmuration/internal/serve"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

// Workload constants. The rates are fixed (not measured per run) so every
// commit is offered the same load.
const (
	loneWireRate   = 100  // req/s: light load, requests arrive alone
	fanoutRate     = 200  // req/s: ~18% of fanout's closed-loop capacity (see README)
	saturateCalls  = 32   // closed-loop in-process callers
	saturateTrace  = 8192 // length of the request sequence callers cycle through
	poolPerRes     = 16   // seeded input images per resolution
	warmup         = time.Second
	linkChangeMin  = 200 * time.Millisecond
	linkChangeSpan = 200 * time.Millisecond
)

// poolResolutions are scenario.DefaultMix's input resolutions (32, 28, 24);
// every workload draws its inputs from the same seeded pool.
var poolResolutions = scenario.DefaultMix().Resolutions

// linkRegimes are the per-remote (bandwidth Mb/s, delay ms) states lone-wire
// switches between; regime 0 is the gateway's default link.
var linkRegimes = [][numDaemons][2]float64{
	{{100, 10}, {100, 10}, {100, 10}},
	{{50, 20}, {100, 10}, {200, 5}},
	{{25, 40}, {25, 40}, {100, 10}},
	{{400, 2}, {200, 5}, {50, 30}},
}

// workload is one traffic mix and the stack it runs against.
type workload struct {
	name  string
	stack stackOptions
	// open-loop workloads time requests from their due time; closed-loop
	// ones from send.
	openLoop bool
	// knownConfigs returns the configurations whose reference logits setup
	// precomputes (the oracle computes any other lazily).
	knownConfigs func(s *stack) ([]*supernet.Config, error)
	// requests generates the phase's request stream from a seed.
	requests func(seed int64, d time.Duration) []request
	// drive runs one phase: it offers reqs for d and returns the samples.
	drive func(b *bench, reqs []request, d time.Duration, seed int64) ([]*sample, error)
}

var workloads = map[string]*workload{
	"lone-wire": {
		name:         "lone-wire",
		stack:        stackOptions{shaped: true, front: true},
		openLoop:     true,
		knownConfigs: structuredConfigs,
		requests:     loneWireRequests,
		drive:        driveLoneWire,
	},
	"batch-saturate": {
		name:         "batch-saturate",
		stack:        stackOptions{shaped: true},
		knownConfigs: mixConfigs,
		requests: func(seed int64, _ time.Duration) []request {
			return mixRequests(seed, float64(saturateTrace), time.Second)
		},
		drive: driveClosed,
	},
	"fanout": {
		name:         "fanout",
		stack:        stackOptions{pinned: fanoutDecision},
		openLoop:     true,
		knownConfigs: func(s *stack) ([]*supernet.Config, error) { return []*supernet.Config{s.decider.pinned.Config}, nil },
		requests: func(seed int64, d time.Duration) []request {
			return mixRequests(seed, fanoutRate, d)
		},
		drive: func(b *bench, reqs []request, _ time.Duration, _ int64) ([]*sample, error) {
			return driveOpen(reqs, b.submitInProcess), nil
		},
	},
}

// request is one generated arrival.
type request struct {
	at    time.Duration // open loop: offset from the phase start
	slo   runtime.SLO
	input int // index into the input pool
}

// sample is one request's measured outcome.
type sample struct {
	req   request
	due   time.Time // open loop: scheduled send time; closed loop: send time
	lag   time.Duration
	sent  time.Time
	done  time.Time
	out   serve.Outcome
	err   error
	wrong bool
}

// latency is the request's end-to-end time: from due time in open loop,
// from send in closed loop (where due == sent).
func (s *sample) latency() time.Duration { return s.done.Sub(s.due) }

// inputPool makes the seeded input images: poolPerRes per resolution, in
// poolResolutions order.
func inputPool(seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	var pool []*tensor.Tensor
	for _, res := range poolResolutions {
		for i := 0; i < poolPerRes; i++ {
			x := tensor.New(1, 3, res, res)
			x.RandNormal(rng, 0.5)
			pool = append(pool, x)
		}
	}
	return pool
}

// arrivals returns exactly rate*d sorted offsets in [0, d): a Poisson
// process conditioned on its count, so every seed offers the same number of
// requests and the open-loop throughput does not vary with the seed.
func arrivals(rate float64, d time.Duration, rng *rand.Rand) []time.Duration {
	out := make([]time.Duration, int(math.Round(rate*d.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// loneWireRequests draws arrivals at loneWireRate with continuous SLOs: 60%
// latency (log-uniform 20-2000 ms), 25% accuracy (uniform 72-79%), 15%
// best-effort.
func loneWireRequests(seed int64, d time.Duration) []request {
	rng := rand.New(rand.NewSource(seed))
	ats := arrivals(loneWireRate, d, rng)
	reqs := make([]request, len(ats))
	for i, at := range ats {
		r := request{at: at, input: rng.Intn(len(poolResolutions) * poolPerRes)}
		switch u := rng.Float64(); {
		case u < 0.60:
			r.slo = runtime.SLO{Type: env.LatencySLO, Value: 20 * math.Pow(100, rng.Float64())}
		case u < 0.85:
			r.slo = runtime.SLO{Type: env.AccuracySLO, Value: 72 + 7*rng.Float64()}
		default:
			r.slo = runtime.SLO{Type: env.LatencySLO}
		}
		reqs[i] = r
	}
	return reqs
}

// mixRequests draws rate*d requests from scenario.DefaultMix's classes
// (latency 250 ms, accuracy 75%, best-effort) and resolutions (32/28/24),
// arriving over d.
func mixRequests(seed int64, rate float64, d time.Duration) []request {
	mix := scenario.DefaultMix()
	var total float64
	for _, c := range mix.Classes {
		total += c.Weight
	}
	rng := rand.New(rand.NewSource(seed))
	ats := arrivals(rate, d, rng)
	reqs := make([]request, len(ats))
	for i, at := range ats {
		c := mix.Classes[len(mix.Classes)-1]
		u := rng.Float64() * total
		for _, k := range mix.Classes {
			if u < k.Weight {
				c = k
				break
			}
			u -= k.Weight
		}
		res := rng.Intn(len(poolResolutions))
		reqs[i] = request{at: at, slo: runtime.SLO{Type: c.SLOType, Value: c.SLOValue},
			input: res*poolPerRes + rng.Intn(poolPerRes)}
	}
	return reqs
}

// fanoutDecision pins the max config with every layer on a 2x2 FDSP grid and
// tile t of each layer on device t: one local tile and three remote tiles per
// layer, 12 remote tiles per inference.
func fanoutDecision(a *supernet.Arch) *env.Decision {
	cfg := a.MaxConfig()
	for i := range cfg.Layers {
		cfg.Layers[i].Partition = supernet.Partition{Gy: 2, Gx: 2}
	}
	costs, err := a.Costs(cfg)
	if err != nil {
		panic(err) // MaxConfig with a grid from the arch's own space is valid
	}
	p := supernet.LocalPlacement(costs)
	for k := range p.Devices {
		for t := range p.Devices[k] {
			p.Devices[k][t] = t % (numDaemons + 1)
		}
	}
	return &env.Decision{Config: cfg, Placement: p}
}

// structuredConfigs lists every configuration structured search can answer.
func structuredConfigs(s *stack) ([]*supernet.Config, error) {
	var out []*supernet.Config
	seen := map[string]bool{}
	for _, g := range env.StructuredGenomes(s.decider.e) {
		d, err := s.decider.e.Decode(g)
		if err != nil {
			continue // StructuredSearch skips undecodable genomes too
		}
		if k := d.Config.String(); !seen[k] {
			seen[k] = true
			out = append(out, d.Config)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no structured configurations")
	}
	return out, nil
}

// mixConfigs resolves DefaultMix's three classes once; with link state held
// steady these are the only strategies batch-saturate runs. Resolving here
// also fills the strategy cache before timing starts.
func mixConfigs(s *stack) ([]*supernet.Config, error) {
	var out []*supernet.Config
	for _, c := range scenario.DefaultMix().Classes {
		res, err := s.rt.ResolveFor(runtime.SLO{Type: c.SLOType, Value: c.SLOValue})
		if err != nil {
			return nil, fmt.Errorf("resolve %v %v: %w", c.SLOType, c.SLOValue, err)
		}
		out = append(out, res.Decision.Config)
	}
	return out, nil
}

// driveOpen offers reqs open loop: each is dispatched at its due time on its
// own goroutine, whether or not earlier requests finished. lag is how late
// the dispatcher ran.
func driveOpen(reqs []request, submit func(*sample)) []*sample {
	samples := make([]*sample, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range reqs {
		due := start.Add(r.at)
		sleepUntil(due)
		s := &sample{req: r, due: due, lag: time.Since(due)}
		samples[i] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			submit(s)
		}()
	}
	wg.Wait()
	return samples
}

// sleepUntil blocks until t. Go's runtime timers wake up to a millisecond
// late on Linux (they wait on millisecond epoll timeouts), which the open
// loop would charge to every request as generator lag; a nanosleep system
// call wakes within about 0.1 ms.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // interrupted: the loop sleeps the rest
	}
}

// driveClosed runs saturateCalls in-process callers for d, each sending its
// next request only after the previous one completed. Callers take requests
// in order from the shared sequence.
func driveClosed(b *bench, reqs []request, d time.Duration, _ int64) ([]*sample, error) {
	var next atomic.Int64
	per := make([][]*sample, saturateCalls)
	var wg sync.WaitGroup
	end := time.Now().Add(d)
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(end) {
				r := reqs[int(next.Add(1)-1)%len(reqs)]
				s := &sample{req: r}
				b.submitInProcess(s)
				s.due = s.sent
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	var out []*sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out, nil
}

// driveLoneWire offers reqs open loop over at most nproc gateway
// connections (a request waits for a free connection, on its own clock)
// while a seeded schedule moves the remotes' link state every 200-400 ms.
func driveLoneWire(b *bench, reqs []request, _ time.Duration, seed int64) ([]*sample, error) {
	conns := make(chan *serve.Client, b.nproc)
	for i := 0; i < b.nproc; i++ {
		c, err := serve.DialClient(b.s.front)
		if err != nil {
			return nil, fmt.Errorf("dial gateway: %w", err)
		}
		defer c.Close()
		conns <- c
	}
	stop := make(chan struct{})
	linksDone := make(chan struct{})
	go func() {
		defer close(linksDone)
		moveLinks(b.s.rt, seed, stop)
	}()
	samples := driveOpen(reqs, func(s *sample) {
		c := <-conns
		s.sent = time.Now()
		res, err := c.Infer(b.pool[s.req.input], s.req.slo, 0)
		s.done = time.Now()
		conns <- c
		s.out = serve.Outcome{Rung: -1, Err: err}
		if err == nil {
			s.out = serve.Outcome{Logits: res.Logits, QueueWait: res.QueueWait, ExecTime: res.ExecTime,
				DecideTime: res.DecideTime, BatchSize: res.BatchSize, CacheHit: res.CacheHit, Rung: -1}
		}
		s.err = err
	})
	close(stop)
	<-linksDone
	// Back to the default link so the next phase starts from the same state.
	setRegime(b.s.rt, 0)
	return samples, nil
}

// moveLinks switches every remote to a seeded regime at seeded intervals
// until stop closes.
func moveLinks(rt *runtime.Runtime, seed int64, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(seed ^ 0x11e4))
	for {
		wait := linkChangeMin + time.Duration(rng.Int63n(int64(linkChangeSpan)))
		select {
		case <-stop:
			return
		case <-time.After(wait):
		}
		setRegime(rt, rng.Intn(len(linkRegimes)))
	}
}

func setRegime(rt *runtime.Runtime, k int) {
	for i, l := range linkRegimes[k] {
		_ = rt.SetLinkState(i, l[0], l[1]) // i < numDaemons: always in range
	}
}
