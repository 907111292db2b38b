package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The batch-formation gate: a worker lingers for partners only while every
// other worker is busy. The lingers below are huge, so every assertion holds
// on structure — who is idle, who is stalled — not on timing margins.

// TestBatchFormationLoneRequestSkipsLinger: with a second worker idle, a lone
// request dispatches at once instead of waiting out the linger.
func TestBatchFormationLoneRequestSkipsLinger(t *testing.T) {
	g := New(newTestRuntime(21, nil), Options{Workers: 2, MaxLinger: 10 * time.Second})
	defer g.Close(time.Second)
	out, err := g.Submit(testInput(1), latSLO(60000))
	if err != nil {
		t.Fatal(err)
	}
	if out.BatchSize != 1 || out.QueueWait >= time.Second {
		t.Fatalf("lone request: batch %d, queue wait %v; want batch 1 well under 1s", out.BatchSize, out.QueueWait)
	}
}

// stallOneWorker submits a request whose strategy resolution blocks until
// release is called, occupying one worker. It returns once that worker is
// stalled inside the decider; wait blocks until the stalled request returns.
func stallOneWorker(t *testing.T, opts Options) (g *Gateway, release func(), wait func()) {
	t.Helper()
	gate := make(chan struct{})
	var decides int32
	g = New(newTestRuntime(22, func() {
		if atomic.AddInt32(&decides, 1) == 1 {
			<-gate
		}
	}), opts)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.Submit(testInput(2), latSLO(0))
	}()
	waitFor(t, func() bool { return atomic.LoadInt32(&decides) == 1 })
	return g, func() { close(gate) }, wg.Wait
}

// submitAsync submits one same-SLO request and delivers its outcome.
func submitAsync(t *testing.T, g *Gateway, seed int64) <-chan Outcome {
	ch := make(chan Outcome, 1)
	go func() {
		out, err := g.Submit(testInput(seed), latSLO(60000))
		if err != nil {
			t.Error(err)
		}
		ch <- out
	}()
	return ch
}

// TestBatchFormationBusyPoolLingers: with the only other worker busy, the
// worker holding request A lingers, and a same-SLO request B that arrives
// after A was taken joins A's batch.
func TestBatchFormationBusyPoolLingers(t *testing.T) {
	g, release, wait := stallOneWorker(t, Options{Workers: 2, MaxBatch: 2, MaxLinger: 10 * time.Second})
	defer g.Close(time.Second)
	defer wait()
	defer release()

	a := submitAsync(t, g, 3)
	// Queue depth 0 means the free worker popped A, and it is lingering: a
	// worker takes its head and decides to linger under one lock hold.
	waitFor(t, func() bool { st := g.Stats(); return st.Admitted == 2 && st.QueueDepth[ClassLatency] == 0 })
	b := submitAsync(t, g, 4)
	for name, ch := range map[string]<-chan Outcome{"A": a, "B": b} {
		if out := <-ch; out.BatchSize != 2 {
			t.Errorf("request %s served in batch of %d, want 2", name, out.BatchSize)
		}
	}
}

// TestBatchFormationNegativeLingerDisables: a negative MaxLinger never
// lingers, even with every other worker busy — the sequence of
// TestBatchFormationBusyPoolLingers serves A and B in batches of 1.
func TestBatchFormationNegativeLingerDisables(t *testing.T) {
	g, release, wait := stallOneWorker(t, Options{Workers: 2, MaxBatch: 2, MaxLinger: -1})
	defer g.Close(time.Second)
	defer wait()
	defer release()

	a := submitAsync(t, g, 5)
	waitFor(t, func() bool { st := g.Stats(); return st.Admitted == 2 && st.QueueDepth[ClassLatency] == 0 })
	b := submitAsync(t, g, 6)
	for name, ch := range map[string]<-chan Outcome{"A": a, "B": b} {
		if out := <-ch; out.BatchSize != 1 {
			t.Errorf("request %s served in batch of %d, want 1", name, out.BatchSize)
		}
	}
}

// TestBatchFormationLingerTimerWakes: the linger timer's wake-up is never
// lost. A single worker lingers on every lone request; with a linger of a
// few microseconds the timer can fire before the worker starts waiting, and
// a lost broadcast would leave the worker, and the request, asleep for good.
func TestBatchFormationLingerTimerWakes(t *testing.T) {
	for _, linger := range []time.Duration{time.Microsecond, 3 * time.Microsecond, 10 * time.Microsecond} {
		g := New(newTestRuntime(23, nil), Options{Workers: 1, MaxBatch: 4, MaxLinger: linger})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 300; i++ {
				g.Submit(testInput(int64(i)), latSLO(0))
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("linger %v: a lone request was never served", linger)
		}
		g.Close(time.Second)
	}
}
