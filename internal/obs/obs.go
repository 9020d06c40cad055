// Package obs is the run-telemetry subsystem: a low-overhead collector
// of simulated-time series and counters threaded through the DES kernel,
// PHY, MAC, and manet layers, plus a versioned JSONL export consumed by
// the analysis tools.
//
// The paper's results (RE, SRB, latency) are aggregate endpoints;
// explaining *why* a scheme saves rebroadcasts needs visibility into
// contention, collision, and suppression dynamics over simulated time —
// the channel-load analysis the broadcast-reliability literature uses.
// A Collector samples registered counters and gauges on a configurable
// sim-time tick (channel busy fraction, concurrent transmissions,
// collision counts, backoff stalls, pending-event depth, per-scheme
// inhibit/proceed decisions) without perturbing the simulation: sampling
// rides the scheduler's tick hook, schedules no events, and draws no
// random numbers, so an instrumented run produces a byte-identical
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

// CounterID identifies a registered counter; obtain one with Counter.
// The zero value is safe to Inc only through a nil Collector (every
// instrument point that holds a CounterID also holds the Collector it
// was registered on).
type CounterID int

type counterSlot struct {
	name  string
	value int64
}

type gaugeSlot struct {
	name string
	fn   func() float64
}

// Sample is one row of the time series: every registered counter and
// gauge evaluated at one simulated instant. Values align with
// SeriesNames (counters first, in registration order, then gauges).
type Sample struct {
	At     sim.Time
	Values []float64
}

// Collector accumulates one run's telemetry. Build it with New, hand it
// to manet.Config.Telemetry (or register series directly), and read the
// samples back — or Export them as JSONL — after the run. A Collector is
// single-use and, like the simulation that feeds it, not safe for
// concurrent use; replica-level parallelism uses one Collector per
// replica (see experiment.Options.Telemetry).
type Collector struct {
	tick     sim.Duration
	counters []counterSlot
	gauges   []gaugeSlot
	byName   map[string]CounterID
	samples  []Sample
}

// New creates a collector sampling every tick of simulated time;
// tick <= 0 uses DefaultTick.
func New(tick sim.Duration) *Collector {
	if tick <= 0 {
		tick = DefaultTick
	}
	return &Collector{tick: tick, byName: make(map[string]CounterID)}
}

// Tick returns the sampling interval (0 on a nil collector).
func (c *Collector) Tick() sim.Duration {
	if c == nil {
		return 0
	}
	return c.tick
}

// Counter registers (or finds) a counter by name and returns its id.
// Registering on a nil collector returns 0; the matching Inc calls are
// no-ops there too, so instrument points need no nil checks of
// their own beyond guarding genuinely expensive bookkeeping.
func (c *Collector) Counter(name string) CounterID {
	if c == nil {
		return 0
	}
	if id, ok := c.byName[name]; ok {
		return id
	}
	id := CounterID(len(c.counters))
	c.counters = append(c.counters, counterSlot{name: name})
	c.byName[name] = id
	return id
}

// Inc increments a registered counter by one. Safe on a nil collector.
func (c *Collector) Inc(id CounterID) {
	if c == nil {
		return
	}
	c.counters[id].value++
}

// Gauge registers a sampled series evaluated at every tick. Gauges must
// be pure reads of simulation state: they run inside the scheduler's
// tick hook, so mutating state or drawing random numbers there would
// change the run they are observing. Safe on a nil collector.
func (c *Collector) Gauge(name string, fn func() float64) {
	if c == nil {
		return
	}
	c.gauges = append(c.gauges, gaugeSlot{name: name, fn: fn})
}

// SeriesNames returns every sampled series name: counters first in
// registration order, then gauges in registration order — the column
// order of Sample.Values.
func (c *Collector) SeriesNames() []string {
	if c == nil {
		return nil
	}
	names := make([]string, 0, len(c.counters)+len(c.gauges))
	for _, s := range c.counters {
		names = append(names, s.name)
	}
	for _, g := range c.gauges {
		names = append(names, g.name)
	}
	return names
}

// Sample snapshots every counter and gauge at the given simulated time,
// appending one row to the series. Consecutive calls at the same
// instant coalesce (the later call wins), so an explicit end-of-run
// sample can follow a tick that already fired at the same time.
func (c *Collector) Sample(at sim.Time) {
	if c == nil {
		return
	}
	row := Sample{At: at, Values: make([]float64, 0, len(c.counters)+len(c.gauges))}
	for _, s := range c.counters {
		row.Values = append(row.Values, float64(s.value))
	}
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
