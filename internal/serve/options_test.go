package serve

import (
	"testing"
	"time"

	"murmuration/internal/runtime"
)

// TestOptionsDefaultsAudit pins what a zero and a negative value of every
// Options field resolve to, against the field's doc comment: zero selects
// the default, negative selects it too unless the field gives negative its
// own meaning (MaxLinger: never linger; MaxRung and CorrelatedLossK:
// disabled).
func TestOptionsDefaultsAudit(t *testing.T) {
	// effective reads one field after defaulting. MaxRung is resolved by the
	// ladder New builds, so it is read there.
	cases := []struct {
		field     string
		set       func(o *Options, v int)
		effective func(o Options) any
		zero, neg any
	}{
		{"Workers",
			func(o *Options, v int) { o.Workers = v },
			func(o Options) any { return o.Workers },
			2, 2},
		{"MaxBatch",
			func(o *Options, v int) { o.MaxBatch = v },
			func(o Options) any { return o.MaxBatch },
			8, 8},
		{"MaxLinger",
			func(o *Options, v int) { o.MaxLinger = time.Duration(v) * time.Millisecond },
			func(o Options) any { return o.MaxLinger },
			2 * time.Millisecond, -time.Millisecond},
		{"QueueDepth",
			func(o *Options, v int) { o.QueueDepth = v },
			func(o Options) any { return o.QueueDepth },
			64, 64},
		{"MaxRung",
			func(o *Options, v int) { o.MaxRung = v },
			func(o Options) any { return runtime.NewLadder(o.MaxRung, o.LadderHysteresis).MaxRung() },
			runtime.DefaultMaxRung, 0},
		{"CorrelatedLossK",
			func(o *Options, v int) { o.CorrelatedLossK = v },
			func(o Options) any { return o.CorrelatedLossK },
			2, -1},
		{"CorrelatedLossWindow",
			func(o *Options, v int) { o.CorrelatedLossWindow = time.Duration(v) * time.Second },
			func(o Options) any { return o.CorrelatedLossWindow },
			2 * time.Second, 2 * time.Second},
		{"CorrelatedLossHold",
			func(o *Options, v int) { o.CorrelatedLossHold = time.Duration(v) * time.Second },
			func(o Options) any { return o.CorrelatedLossHold },
			5 * time.Second, 5 * time.Second},
		{"RewarmConcurrency",
			func(o *Options, v int) { o.RewarmConcurrency = v },
			func(o Options) any { return o.RewarmConcurrency },
			2, 2},
		{"ReintegrationStagger",
			func(o *Options, v int) { o.ReintegrationStagger = time.Duration(v) * time.Millisecond },
			func(o Options) any { return o.ReintegrationStagger },
			200 * time.Millisecond, 200 * time.Millisecond},
	}
	for _, c := range cases {
		for _, v := range []struct {
			in   int
			want any
		}{{0, c.zero}, {-1, c.neg}} {
			var o Options
			c.set(&o, v.in)
			if got := c.effective(o.withDefaults()); got != v.want {
				t.Errorf("%s = %d: effective %v, want %v", c.field, v.in, got, v.want)
			}
		}
	}

	// MaxBatch above what the wire's one byte can carry clamps to 255.
	if got := (Options{MaxBatch: 1000}).withDefaults().MaxBatch; got != 255 {
		t.Errorf("MaxBatch = 1000: effective %d, want 255", got)
	}
}

// TestNegativeCorrelatedLossKDisablesDetector checks the behaviour behind
// the audit's CorrelatedLossK row: with a negative K no burst of Down
// transitions records a correlated-loss event.
func TestNegativeCorrelatedLossKDisablesDetector(t *testing.T) {
	g := New(newTestRuntime(3, nil), Options{Workers: 1, CorrelatedLossK: -1})
	defer g.Close(time.Second)
	now := time.Now()
	for i := 0; i < 8; i++ {
		g.noteDown(now)
	}
	if n := g.Stats().CorrelatedLossEvents; n != 0 {
		t.Fatalf("negative CorrelatedLossK recorded %d correlated-loss events, want 0", n)
	}
}
