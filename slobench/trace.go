package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Req is the request id, or
// -1 for spans tied to the workload rather than a request (decider, tile and
// executor spans: those hooks carry no request id). Parent indexes the
// trace's span list, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory while recording is on; they are written out
// when the benchmark ends. Hooks installed in the stack call it from many
// goroutines.
type tracer struct {
	origin time.Time
	on     atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) add(name string, start, end time.Time, parent, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.origin)),
		End: int64(end.Sub(t.origin)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// hook records a workload-level span when recording is on.
func (t *tracer) hook(name string, start, end time.Time) {
	if t.on.Load() {
		t.add(name, start, end, -1, -1)
	}
}

func (t *tracer) search(start, end time.Time)   { t.hook("rl.search", start, end) }
func (t *tracer) tile(start, end time.Time)     { t.hook("rpcx.tile", start, end) }
func (t *tracer) executor(start, end time.Time) { t.hook("runtime.executor", start, end) }

// addRequest records one request's spans: the loadgen wait from due time to
// send, the root Submit/Infer call, and under it the queue, decide and exec
// phases the Outcome reports. ExecTime includes DecideTime (the gateway
// starts its exec clock before resolving), so decide is the head of the exec
// interval and exec covers the rest. Outcome carries durations, not
// timestamps: the phases are placed back to back from the send time, and
// over the wire centred in the round trip.
func (t *tracer) addRequest(id int, s *sample, wire bool) {
	if s.sent.After(s.due) {
		t.add("loadgen.wait", s.due, s.sent, -1, id)
	}
	root := t.add("request", s.sent, s.done, -1, id)
	if s.err != nil {
		return
	}
	o := s.out
	at := s.sent
	if wire {
		at = at.Add((s.done.Sub(s.sent) - o.QueueWait - o.ExecTime) / 2)
	}
	t.add("serve.queue", at, at.Add(o.QueueWait), root, id)
	at = at.Add(o.QueueWait)
	t.add("runtime.decide", at, at.Add(o.DecideTime), root, id)
	t.add("runtime.exec", at.Add(o.DecideTime), at.Add(o.ExecTime), root, id)
}

// selfTime sums each span name's self time — its duration minus the part
// covered by its children — over the spans of requests (Req >= 0).
func (t *tracer) selfTime() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.Req < 0 {
			continue
		}
		out[s.Name] += time.Duration(s.End-s.Start) - covered(s, children[i])
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, end int64 = 0, s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end), min(k.End, s.End)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return time.Duration(total)
}

// durations returns the durations of the named workload-level spans.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
