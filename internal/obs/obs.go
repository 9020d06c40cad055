// Package obs is the one way to observe a run: a low-overhead collector
// of simulated-time series threaded through the DES kernel, PHY, MAC,
// and manet layers; a Recorder of the per-broadcast event trace; an
// Auditor of runtime invariants (audit.go); and one versioned JSONL
// format that carries series and trace, written by Export and read back
// by Decode.
//
// The paper's results (RE, SRB, latency) are aggregate endpoints;
// explaining *why* a scheme saves rebroadcasts needs visibility into
// contention, collision, and suppression dynamics over simulated time —
// the channel-load analysis the broadcast-reliability literature uses.
// A Collector samples registered gauges on a configurable sim-time tick
// (channel busy fraction, concurrent transmissions, collision counts,
// backoff stalls, pending-event depth, per-scheme inhibit/proceed
// decisions) without perturbing the simulation: sampling rides the
// scheduler's tick hook, schedules no events, and draws no random
// numbers, so an instrumented run produces a byte-identical
// metrics.Summary (asserted by manet's telemetry equivalence test).
//
// A nil *Collector is valid everywhere and disables telemetry at zero
// cost: every method is a nil-receiver no-op, and the instrumented hot
// paths guard their bookkeeping behind a single pointer check (asserted
// by BenchmarkTelemetry).
package obs

import "repro/internal/sim"

// DefaultTick is the sampling interval used when a caller asks for
// telemetry without choosing one: fine enough to resolve per-broadcast
// channel-load transients (a broadcast storm plays out over tens of
// milliseconds), coarse enough that a minutes-long run stays small.
const DefaultTick = 100 * sim.Millisecond

type gaugeSlot struct {
	name string
	fn   func() float64
}

// Sample is one row of the time series: every registered gauge
// evaluated at one simulated instant. Values align with SeriesNames.
type Sample struct {
	At     sim.Time
	Values []float64
}

// Collector accumulates one run's telemetry. Build it with New, hand it
// to manet.Config.Telemetry (or register gauges directly), and read the
// samples back — or Export them as JSONL — after the run. A Collector is
// single-use and, like the simulation that feeds it, not safe for
// concurrent use.
type Collector struct {
	tick    sim.Duration
	gauges  []gaugeSlot
	samples []Sample
}

// New creates a collector sampling every tick of simulated time;
// tick <= 0 uses DefaultTick.
func New(tick sim.Duration) *Collector {
	if tick <= 0 {
		tick = DefaultTick
	}
	return &Collector{tick: tick}
}

// Tick returns the sampling interval (0 on a nil collector).
func (c *Collector) Tick() sim.Duration {
	if c == nil {
		return 0
	}
	return c.tick
}

// Gauge registers a sampled series evaluated at every tick. Gauges must
// be pure reads of simulation state: they run inside the scheduler's
// tick hook, so mutating state or drawing random numbers there would
// change the run they are observing. A counter is a gauge reading a
// plain integer its owner bumps. Safe on a nil collector.
func (c *Collector) Gauge(name string, fn func() float64) {
	if c == nil {
		return
	}
	c.gauges = append(c.gauges, gaugeSlot{name: name, fn: fn})
}

// SeriesNames returns every sampled series name in registration order —
// the column order of Sample.Values.
func (c *Collector) SeriesNames() []string {
	if c == nil {
		return nil
	}
	names := make([]string, 0, len(c.gauges))
	for _, g := range c.gauges {
		names = append(names, g.name)
	}
	return names
}

// Sample evaluates every gauge at the given simulated time, appending
// one row to the series. Consecutive calls at the same instant coalesce
// (the later call wins), so an explicit end-of-run sample can follow a
// tick that already fired at the same time.
func (c *Collector) Sample(at sim.Time) {
	if c == nil {
		return
	}
	row := Sample{At: at, Values: make([]float64, 0, len(c.gauges))}
	for _, g := range c.gauges {
		row.Values = append(row.Values, g.fn())
	}
	if n := len(c.samples); n > 0 && c.samples[n-1].At == at {
		c.samples[n-1] = row
		return
	}
	c.samples = append(c.samples, row)
}

// Samples returns the recorded time series in sampling order. The slice
// is the collector's storage; callers must not modify it.
func (c *Collector) Samples() []Sample {
	if c == nil {
		return nil
	}
	return c.samples
}
