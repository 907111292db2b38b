// Package netem emulates network conditions the way the paper uses the `tc`
// traffic-control tool: it imposes a bandwidth cap (token bucket) and an
// additive propagation delay on real byte streams. The runtime wraps its TCP
// connections in a shaped conn so distributed-inference measurements respond
// to the same (bandwidth, delay) variables the RL policy reasons about.
//
// A Shaper carries independent state per link direction (Upstream: client →
// server requests; Downstream: server → client responses), so chaos tests and
// scenario traces can reproduce asymmetric faults — the half-open link whose
// small heartbeat frames keep flowing while large tensor frames stall in one
// direction. The undirected methods (SetRate, Blackhole, ...) keep their
// historic symmetric meaning by applying to both directions.
package netem

import (
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Dir selects one direction of a shaped link.
type Dir int

// Link directions. Upstream is the client-to-server path (requests, and the
// write path of a Conn created with NewConn); Downstream is the server-to-
// client path (responses).
const (
	Upstream Dir = iota
	Downstream
	numDirs
)

// String names the direction for logs.
func (d Dir) String() string {
	switch d {
	case Upstream:
		return "upstream"
	case Downstream:
		return "downstream"
	}
	return "dir(?)"
}

// dirState is the shaping and fault-injection state of one link direction.
type dirState struct {
	bytesPerSec   float64
	delay         time.Duration
	tokens        float64
	lastRefill    time.Time
	maxBurstBytes float64

	outageUntil time.Time
	lossRate    float64
	lossRng     *rand.Rand
	corruptRate float64
	corruptRng  *rand.Rand

	// Size-dependent stall injection: while the window is open, writes of at
	// least stallMin bytes block until it closes — small frames (heartbeats,
	// ping echoes) pass untouched while large tensor frames hang, which is the
	// differential-observability signature of a half-open link.
	stallMin   int
	stallUntil time.Time
}

func (d *dirState) setRate(bandwidthMbps float64) {
	d.bytesPerSec = bandwidthMbps * 1e6 / 8
	// Allow up to 2 ms worth of burst so small messages aren't over-paced
	// while bulk transfers (and bandwidth probes) still see the line rate.
	d.maxBurstBytes = d.bytesPerSec * 0.002
	if d.maxBurstBytes < 16*1024 {
		d.maxBurstBytes = 16 * 1024
	}
}

// Shaper rate-limits a byte stream with a token bucket and delays delivery,
// with independent state per direction. It is safe for concurrent use.
type Shaper struct {
	mu          sync.Mutex
	dirs        [numDirs]dirState
	corruptions uint64
}

// NewShaper creates a shaper with the given bandwidth (megabits per second)
// and one-way delay, symmetric across both directions. bandwidthMbps <= 0
// means unlimited.
func NewShaper(bandwidthMbps float64, delay time.Duration) *Shaper {
	s := &Shaper{}
	now := time.Now()
	for i := range s.dirs {
		d := &s.dirs[i]
		d.setRate(bandwidthMbps)
		d.delay = delay
		d.lastRefill = now
		d.tokens = d.maxBurstBytes
	}
	return s
}

// eachDir runs f over every direction's state. Caller holds s.mu.
func (s *Shaper) eachDir(f func(*dirState)) {
	for i := range s.dirs {
		f(&s.dirs[i])
	}
}

// SetRate updates the bandwidth cap (megabits per second) in both directions.
func (s *Shaper) SetRate(bandwidthMbps float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eachDir(func(d *dirState) { d.setRate(bandwidthMbps) })
}

// SetRateDir updates one direction's bandwidth cap (megabits per second).
func (s *Shaper) SetRateDir(dir Dir, bandwidthMbps float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dirs[dir].setRate(bandwidthMbps)
}

// SetDelay updates the one-way delay in both directions.
func (s *Shaper) SetDelay(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eachDir(func(ds *dirState) { ds.delay = d })
}

// SetDelayDir updates one direction's one-way delay.
func (s *Shaper) SetDelayDir(dir Dir, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dirs[dir].delay = d
}

// Delay returns the currently configured one-way delay (Upstream — the write
// path of a Conn created with NewConn, and of the rpcx client).
func (s *Shaper) Delay() time.Duration { return s.DelayDir(Upstream) }

// DelayDir returns one direction's configured one-way delay.
func (s *Shaper) DelayDir(dir Dir) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dirs[dir].delay
}

// Blackhole opens an outage window of duration d in both directions starting
// now: every write through a Conn wrapping this shaper is silently discarded
// until the window closes, emulating a link that has gone dark (the peer sees
// nothing, so callers observe timeouts rather than connection errors —
// exactly how a dead edge device presents). d <= 0 clears any active window.
// Tests use this to script device churn deterministically.
func (s *Shaper) Blackhole(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	until := windowUntil(d)
	s.eachDir(func(ds *dirState) { ds.outageUntil = until })
}

func windowUntil(d time.Duration) time.Time {
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

// OutageActive reports whether a Blackhole window is currently open in either
// direction.
func (s *Shaper) OutageActive() bool {
	return s.OutageActiveDir(Upstream) || s.OutageActiveDir(Downstream)
}

// OutageActiveDir reports whether one direction's outage window is open.
func (s *Shaper) OutageActiveDir(dir Dir) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Now().Before(s.dirs[dir].outageUntil)
}

// SetLoss injects random packet loss in both directions: each write through a
// Conn wrapping this shaper is independently discarded with probability rate
// (0 disables). The seeded RNG keeps chaos tests reproducible. Note that on a
// framed stream a lost write corrupts the message framing, so the practical
// effect is a torn connection — which is the realistic failure mode.
func (s *Shaper) SetLoss(rate float64, seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eachDir(func(d *dirState) { d.setLoss(rate, seed) })
}

// SetLossDir injects random packet loss in one direction only.
func (s *Shaper) SetLossDir(dir Dir, rate float64, seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dirs[dir].setLoss(rate, seed)
}

func (d *dirState) setLoss(rate float64, seed int64) {
	d.lossRate = rate
	if rate > 0 {
		d.lossRng = rand.New(rand.NewSource(seed))
	} else {
		d.lossRng = nil
	}
}

// SetCorrupt injects random data corruption in both directions, mirroring
// SetLoss: each write through a Conn wrapping this shaper independently has
// one random bit flipped with probability rate (0 disables). The seeded RNG
// keeps chaos tests reproducible. Unlike a lost write, a corrupted write
// preserves the stream's length, so a checksum-less protocol delivers the
// flipped bytes to the application silently — exactly the failure the rpcx
// frame checksums exist to catch.
func (s *Shaper) SetCorrupt(rate float64, seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eachDir(func(d *dirState) { d.setCorrupt(rate, seed) })
}

// SetCorruptDir injects bit-flip corruption in one direction only.
func (s *Shaper) SetCorruptDir(dir Dir, rate float64, seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dirs[dir].setCorrupt(rate, seed)
}

func (d *dirState) setCorrupt(rate float64, seed int64) {
	d.corruptRate = rate
	if rate > 0 {
		d.corruptRng = rand.New(rand.NewSource(seed))
	} else {
		d.corruptRng = nil
	}
}

// Corruptions returns how many writes have had a bit flipped so far (both
// directions).
func (s *Shaper) Corruptions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.corruptions
}

// SetStallLarge opens a stall window of duration d in one direction: writes
// of at least minBytes block until the window closes, while smaller writes
// pass untouched. This is the injected form of the classic gray network
// failure — heartbeats and ping echoes (small frames) keep succeeding while
// tensor frames (large) hang, so only an in-flight progress deadline can see
// the fault. minBytes <= 0 or d <= 0 clears the window.
func (s *Shaper) SetStallLarge(dir Dir, minBytes int, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds := &s.dirs[dir]
	if minBytes <= 0 || d <= 0 {
		ds.stallMin = 0
		ds.stallUntil = time.Time{}
		return
	}
	ds.stallMin = minBytes
	ds.stallUntil = time.Now().Add(d)
}

// StallActive reports whether one direction's stall window is currently open.
func (s *Shaper) StallActive(dir Dir) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds := &s.dirs[dir]
	return ds.stallMin > 0 && time.Now().Before(ds.stallUntil)
}

// stall blocks an n-byte write in direction dir while its stall window is
// open and n meets the size threshold. The sleep is chunked so clearing the
// window (SetStallLarge(dir, 0, 0)) releases stalled writers promptly.
func (s *Shaper) stall(dir Dir, n int) {
	for {
		s.mu.Lock()
		ds := &s.dirs[dir]
		active := ds.stallMin > 0 && n >= ds.stallMin && time.Now().Before(ds.stallUntil)
		remaining := time.Until(ds.stallUntil)
		s.mu.Unlock()
		if !active {
			return
		}
		nap := 5 * time.Millisecond
		if remaining < nap {
			nap = remaining
		}
		if nap > 0 {
			time.Sleep(nap)
		}
	}
}

// corruptBit returns the bit index to flip in an n-byte write, or -1 when
// the write passes clean.
func (s *Shaper) corruptBit(dir Dir, n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := &s.dirs[dir]
	if n == 0 || d.corruptRate <= 0 || d.corruptRng.Float64() >= d.corruptRate {
		return -1
	}
	s.corruptions++
	return d.corruptRng.Intn(n * 8)
}

// drop reports whether the current write in direction dir should be discarded
// under the active outage window or loss rate.
func (s *Shaper) drop(dir Dir) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := &s.dirs[dir]
	if time.Now().Before(d.outageUntil) {
		return true
	}
	return d.lossRate > 0 && d.lossRng.Float64() < d.lossRate
}

// Throttle blocks until n bytes may pass Upstream under the bandwidth cap —
// the legacy single-direction entry point used by the rpcx client's write
// path.
func (s *Shaper) Throttle(n int) { s.ThrottleDir(Upstream, n) }

// ThrottleDir blocks until n bytes may pass in direction dir under its
// bandwidth cap. It returns immediately when unlimited. The bucket may go
// negative (debt), which is slept off at the line rate — this keeps the
// long-run rate exact even for writes much larger than the burst allowance.
func (s *Shaper) ThrottleDir(dir Dir, n int) {
	s.mu.Lock()
	d := &s.dirs[dir]
	if d.bytesPerSec <= 0 {
		s.mu.Unlock()
		return
	}
	now := time.Now()
	d.tokens += now.Sub(d.lastRefill).Seconds() * d.bytesPerSec
	d.lastRefill = now
	if d.tokens > d.maxBurstBytes {
		d.tokens = d.maxBurstBytes
	}
	d.tokens -= float64(n)
	var wait time.Duration
	if d.tokens < 0 {
		wait = time.Duration(-d.tokens / d.bytesPerSec * float64(time.Second))
	}
	s.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

// TransferTime returns the modelled time to move n bytes Upstream through
// this shaper (serialization + delay), without actually sleeping. This is the
// same formula the RL environment's cost model uses; for a symmetric shaper
// (any shaper not configured with the *Dir methods) both directions agree.
func (s *Shaper) TransferTime(n int) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds := &s.dirs[Upstream]
	d := ds.delay
	if ds.bytesPerSec > 0 {
		d += time.Duration(float64(n) / ds.bytesPerSec * float64(time.Second))
	}
	return d
}

// Conn wraps a net.Conn with a shaper applied to its write path in one link
// direction. A client-side wrap (NewConn) writes Upstream; a server-side wrap
// (NewConnDir with Downstream) writes Downstream, so one shared Shaper can
// shape a full link asymmetrically.
type Conn struct {
	net.Conn
	shaper *Shaper
	dir    Dir
}

// NewConn wraps c with the given shaper on the write path, in the Upstream
// direction (the historic client-side behavior).
func NewConn(c net.Conn, s *Shaper) *Conn {
	return NewConnDir(c, s, Upstream)
}

// NewConnDir wraps c with the given shaper on the write path, in an explicit
// direction. Server-side wraps (e.g. rpcx.Server.WrapConn) use Downstream so
// response traffic is shaped by the Downstream state of the same Shaper the
// client side shares.
func NewConnDir(c net.Conn, s *Shaper, dir Dir) *Conn {
	return &Conn{Conn: c, shaper: s, dir: dir}
}

// Write throttles, then applies the propagation delay before the bytes hit
// the underlying connection — matching "serialize then propagate". During an
// outage window (Blackhole) or a loss event (SetLoss) the bytes are silently
// discarded: the write "succeeds" but the peer never sees it. A corruption
// event (SetCorrupt) instead flips one random bit in a copy of the buffer —
// the peer receives the right number of wrong bytes. A stall window
// (SetStallLarge) blocks large writes until it closes while passing small
// ones.
func (c *Conn) Write(p []byte) (int, error) {
	if c.shaper.drop(c.dir) {
		return len(p), nil
	}
	if bit := c.shaper.corruptBit(c.dir, len(p)); bit >= 0 {
		q := append([]byte(nil), p...)
		q[bit/8] ^= 1 << (bit % 8)
		p = q
	}
	c.shaper.stall(c.dir, len(p))
	c.shaper.ThrottleDir(c.dir, len(p))
	if d := c.shaper.DelayDir(c.dir); d > 0 {
		// Charge propagation once per logical message: the caller is
		// expected to write a full message per Write via buffered IO.
		time.Sleep(d)
	}
	return c.Conn.Write(p)
}

// Pipe returns two shaped in-memory connection endpoints (like net.Pipe)
// with the given symmetric bandwidth and delay. Useful for tests that need
// deterministic shaped links without real sockets.
func Pipe(bandwidthMbps float64, delay time.Duration) (*Conn, *Conn) {
	a, b, _ := PipeShaper(bandwidthMbps, delay)
	return a, b
}

// PipeShaper is Pipe exposing the single Shaper both endpoints share: the
// first endpoint writes Upstream, the second Downstream, so the caller can
// degrade one direction (SetDelayDir, SetStallLarge, ...) while the other
// stays healthy — the in-memory form of an asymmetric partition.
func PipeShaper(bandwidthMbps float64, delay time.Duration) (*Conn, *Conn, *Shaper) {
	a, b := net.Pipe()
	s := NewShaper(bandwidthMbps, delay)
	return NewConnDir(a, s, Upstream), NewConnDir(b, s, Downstream), s
}

// CopyShaped copies from src to dst through a shaper's Upstream direction,
// for proxy-style emulation of a constrained link.
func CopyShaped(dst io.Writer, src io.Reader, s *Shaper) (int64, error) {
	buf := make([]byte, 32*1024)
	var total int64
	for {
		n, err := src.Read(buf)
		if n > 0 {
			s.Throttle(n)
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return total, werr
			}
			total += int64(n)
		}
		if err != nil {
			if err == io.EOF {
				return total, nil
			}
			return total, err
		}
	}
}
