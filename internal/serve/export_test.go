package serve

import "murmuration/internal/runtime"

// TransitionCosts returns how many wait-estimate resets and rewarm requests
// the gateway has made so far.
func (g *Gateway) TransitionCosts() (waitResets, rewarms uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waitResets, g.rewarms
}

// NoteDeviceError feeds the gateway the reaction a batch failing on
// placement device dev triggers, without a live remote to fail.
func (g *Gateway) NoteDeviceError(dev int, err error) {
	g.noteDeviceError(&runtime.DeviceError{Device: dev, Err: err})
}
