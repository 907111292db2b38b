package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"murmuration/internal/runtime"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

// tolerance is TestDistributedMatchesMonolithic's bound on the distance
// between distributed and monolithic logits.
const tolerance = 1e-4

// oracle checks served logits against Supernet.Forward on the executed
// configuration.
//
// The supernet normalizes with batch statistics, so a served row depends on
// the other requests in its batch: the reference for a batch of n is Forward
// on the same n inputs, stacked after resizing each to the configuration's
// resolution as Runtime.ExecBatch does. Batch-mates are found by the batch's
// shared Outcome fields. References for single requests are memoized per
// (input, configuration); setup fills them for the configurations a workload
// is known to run.
type oracle struct {
	net  *supernet.Supernet
	pool []*tensor.Tensor

	mu   sync.Mutex
	refs map[string]*tensor.Tensor // input index + config string -> logits
}

func newOracle(net *supernet.Supernet, pool []*tensor.Tensor) *oracle {
	return &oracle{net: net, pool: pool, refs: map[string]*tensor.Tensor{}}
}

// precompute fills the single-request references for cfgs over the pool.
func (o *oracle) precompute(cfgs []*supernet.Config) error {
	for _, cfg := range cfgs {
		for i := range o.pool {
			if _, err := o.single(i, cfg); err != nil {
				return err
			}
		}
	}
	return nil
}

func (o *oracle) single(input int, cfg *supernet.Config) (*tensor.Tensor, error) {
	key := fmt.Sprintf("%d/%s", input, cfg)
	o.mu.Lock()
	ref, ok := o.refs[key]
	o.mu.Unlock()
	if ok {
		return ref, nil
	}
	ref, err := o.batch([]int{input}, cfg)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.refs[key] = ref
	o.mu.Unlock()
	return ref, nil
}

// batch runs the reference model on the inputs stacked as one batch.
func (o *oracle) batch(inputs []int, cfg *supernet.Config) (*tensor.Tensor, error) {
	res := cfg.Resolution
	plane := 3 * res * res
	x := tensor.New(len(inputs), 3, res, res)
	for i, in := range inputs {
		copy(x.Data[i*plane:], tensor.BilinearResize(o.pool[in], res, res).Data)
	}
	y, _, err := o.net.Forward(x, cfg, false)
	if err != nil {
		return nil, fmt.Errorf("reference forward %s: %w", cfg, err)
	}
	return y, nil
}

// matches reports whether logits equals row r of ref within tolerance.
func matches(logits, ref *tensor.Tensor, r int) bool {
	if logits == nil || len(logits.Data) == 0 {
		return false
	}
	k := len(logits.Data)
	if len(ref.Data) < (r+1)*k {
		return false
	}
	for i, v := range logits.Data {
		if math.Abs(float64(v-ref.Data[r*k+i])) > tolerance {
			return false
		}
	}
	return true
}

// verdict is the oracle's account of one phase.
type verdict struct {
	checked int // served answers compared
	wrong   int // served answers that matched no candidate configuration
	batches int // multi-request batches reassembled
}

// verify marks every served sample that matches no candidate configuration
// as wrong. candidates lists the configurations a sample may have run.
// Over the wire (wire true) the batch fields travel in whole microseconds, so
// batch-mates are additionally required to finish within a few milliseconds
// of one another.
func (o *oracle) verify(samples []*sample, candidates func(*sample) []*supernet.Config, wire bool, workers int) (verdict, error) {
	type batchKey struct {
		size             int
		exec, decide     time.Duration
		rung             int
		cacheHit, canary bool
	}
	var groups [][]*sample
	byKey := map[batchKey][]*sample{}
	var v verdict
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		v.checked++
		if s.out.BatchSize <= 1 {
			groups = append(groups, []*sample{s})
			continue
		}
		k := batchKey{s.out.BatchSize, s.out.ExecTime, s.out.DecideTime, s.out.Rung, s.out.CacheHit, s.out.Canary}
		byKey[k] = append(byKey[k], s)
	}
	for _, g := range byKey {
		if !wire {
			groups = append(groups, g)
			continue
		}
		sort.Slice(g, func(i, j int) bool { return g[i].done.Before(g[j].done) })
		start := 0
		for i := 1; i <= len(g); i++ {
			if i == len(g) || g[i].done.Sub(g[i-1].done) > 5*time.Millisecond {
				groups = append(groups, g[start:i])
				start = i
			}
		}
	}

	var mu sync.Mutex
	var firstErr error
	work := make(chan []*sample)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range work {
				ok, err := o.checkGroup(g, candidates(g[0]))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if len(g) > 1 {
					v.batches++
				}
				if !ok {
					v.wrong += len(g)
					for _, s := range g {
						s.wrong = true
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, g := range groups {
		work <- g
	}
	close(work)
	wg.Wait()
	return v, firstErr
}

// checkGroup reports whether the group's answers equal the reference output
// of some candidate configuration. A group whose size differs from the
// batch size it reports cannot be reassembled and does not match.
func (o *oracle) checkGroup(g []*sample, cands []*supernet.Config) (bool, error) {
	if len(g) != max(g[0].out.BatchSize, 1) {
		return false, nil
	}
	inputs := make([]int, len(g))
	for i, s := range g {
		inputs[i] = s.req.input
	}
	for _, cfg := range cands {
		var ref *tensor.Tensor
		var err error
		if len(g) == 1 {
			ref, err = o.single(inputs[0], cfg)
		} else {
			ref, err = o.batch(inputs, cfg)
		}
		if err != nil {
			return false, err
		}
		all := true
		for i, s := range g {
			if !matches(s.out.Logits, ref, i) {
				all = false
				break
			}
		}
		if all {
			return true, nil
		}
	}
	return false, nil
}

// candidateConfigs returns the configurations a request may have executed:
// every decision the decider produced for its SLO bucket, degraded to the
// request's rung. rung < 0 means the rung is unknown (it does not travel the
// wire): then every rung up to maxRung is a candidate.
func candidateConfigs(rt *runtime.Runtime, rec *recorder, s *sample, maxRung int) []*supernet.Config {
	rungs := []int{s.out.Rung}
	if s.out.Rung < 0 {
		rungs = rungs[:0]
		for r := 0; r <= maxRung; r++ {
			rungs = append(rungs, r)
		}
	}
	var out []*supernet.Config
	seen := map[string]bool{}
	for _, d := range rec.decisionsFor(s.req.slo) {
		for _, r := range rungs {
			cfg := rt.DegradeDecision(d, r).Config
			if k := cfg.String(); !seen[k] {
				seen[k] = true
				out = append(out, cfg)
			}
		}
	}
	return out
}
