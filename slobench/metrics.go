package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// window is the length of the stretches a phase is cut into. Latency and
// CPU per request are taken per window and the least-disturbed window is
// reported; the heap peak is the median of the windows' peaks. See README.
const window = 2 * time.Second

// proc is a snapshot of the process counters the metrics are deltas of.
type proc struct {
	cpu      time.Duration // user + system CPU, every goroutine of the process
	allocs   uint64        // cumulative heap bytes allocated
	gcCPUSec float64       // runtime's estimate of CPU spent in GC
}

func readProc() proc {
	ms := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(ms)
	return proc{cpu: cpuTime(), allocs: ms[0].Value.Uint64(), gcCPUSec: ms[1].Value.Float64()}
}

// cpuTime is the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF with a valid pointer cannot fail
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampler samples the heap and the goroutine count every few milliseconds
// and cuts the phase into windows: for each complete window it keeps the
// heap peak and the process CPU time at the window's end.
type sampler struct {
	stop chan struct{}
	done chan struct{}

	heap       []float64       // peak heap bytes of each complete window
	cpu        []time.Duration // process CPU at each window boundary; cpu[0] at the start
	goroutines uint64
}

func startSampler(start time.Time) *sampler {
	p := &sampler{stop: make(chan struct{}), done: make(chan struct{}), cpu: []time.Duration{cpuTime()}}
	go func() {
		defer close(p.done)
		ms := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/sched/goroutines:goroutines"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var heap uint64
		for {
			metrics.Read(ms)
			heap = max(heap, ms[0].Value.Uint64())
			p.goroutines = max(p.goroutines, ms[1].Value.Uint64())
			if time.Since(start) >= time.Duration(len(p.cpu))*window {
				p.cpu = append(p.cpu, cpuTime())
				p.heap = append(p.heap, float64(heap))
				heap = 0
			}
			select {
			case <-p.stop:
				if len(p.heap) == 0 {
					p.heap = append(p.heap, float64(heap))
				}
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// end stops sampling; the fields are safe to read once it returns.
func (p *sampler) end() {
	close(p.stop)
	<-p.done
}

// pct is the nearest-rank q-quantile of xs (0 for none). xs is sorted in
// place.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs (xs is sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects named metrics in insertion order.
type report struct {
	names []string
	m     map[string]metric
}

func newReport() *report { return &report{m: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.m[name]; !ok {
		r.names = append(r.names, name)
	}
	r.m[name] = metric{Value: v, Unit: unit}
}
