// Package manet assembles the full simulated mobile ad hoc network: it
// wires the DES kernel, radio channel, MAC, mobility, HELLO neighbor
// discovery, and a rebroadcast scheme into a population of hosts, drives
// the paper's broadcast workload over it, and reports the paper's
// metrics (RE, SRB, latency, HELLO cost).
package manet

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/neighbor"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// MobilityModel selects how hosts move.
type MobilityModel int

// Mobility models.
const (
	// MobilityRandomTurn is the paper's roaming model: per-turn uniform
	// direction, duration, and speed, reflecting off borders.
	MobilityRandomTurn MobilityModel = iota
	// MobilityWaypoint is the classic random-waypoint model: travel to a
	// uniform destination at a uniform speed, pause, repeat.
	MobilityWaypoint
)

// String names the model.
func (m MobilityModel) String() string {
	switch m {
	case MobilityRandomTurn:
		return "random-turn"
	case MobilityWaypoint:
		return "random-waypoint"
	default:
		return fmt.Sprintf("mobility(%d)", int(m))
	}
}

// HelloMode selects how hosts run the neighbor-discovery protocol.
type HelloMode int

// Hello modes.
const (
	// HelloOff disables HELLO packets entirely. Only valid for schemes
	// that do not need neighborhood information.
	HelloOff HelloMode = iota
	// HelloFixed sends HELLOs every Config.HelloInterval.
	HelloFixed
	// HelloDynamic uses the paper's dynamic hello interval, driven by
	// each host's neighborhood variation.
	HelloDynamic
)

// String names the mode.
func (m HelloMode) String() string {
	switch m {
	case HelloOff:
		return "off"
	case HelloFixed:
		return "fixed"
	case HelloDynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config describes one simulation run. Zero-valued fields take the
// paper's defaults (see WithDefaults). The paper's fixed model
// parameters are not fields: the DSSS timing (phy.DSSSTiming), the
// dynamic hello interval's clamp (neighbor.NVMax, HIMin, HIMax) and the
// repair advertisement window (10 s).
type Config struct {
	// Hosts is the population size; the paper simulates 100.
	Hosts int
	// MapUnits is the square map side in units of UnitMeters; the paper
	// uses 1, 3, 5, 7, 9, 11.
	MapUnits int
	// UnitMeters is the map unit length; the paper ties it to the radio
	// radius (500 m).
	UnitMeters float64
	// Radius is the radio transmission radius in meters (500).
	Radius float64
	// MaxSpeedKMH is the roaming speed cap; 0 applies the paper's rule
	// of 10 km/h per map unit (10 in 1x1, 30 in 3x3, ...).
	MaxSpeedKMH float64
	// Static freezes all hosts in place (topology experiments/tests).
	Static bool
	// Mobility selects the movement model; the default is the paper's
	// random-turn model.
	Mobility MobilityModel
	// Placement, if non-empty, fixes the initial host positions instead
	// of uniform random placement. Its length must equal Hosts. Combined
	// with Static it pins an exact topology (tests, examples).
	Placement []geom.Point

	// Scheme is the rebroadcast decision scheme under test.
	Scheme scheme.Scheme

	// Requests is how many broadcast operations to issue.
	Requests int
	// ArrivalSpread is the uniform inter-arrival upper bound between
	// broadcast requests (paper: 2 s across the whole map).
	ArrivalSpread sim.Duration

	// HelloMode and HelloInterval configure neighbor discovery.
	HelloMode     HelloMode
	HelloInterval sim.Duration
	// ExpiryIntervals is how many missed hello intervals expire a
	// neighbor (paper: 2).
	ExpiryIntervals int

	// AssessmentSlots is the scheme-level random delay before submitting
	// a rebroadcast, in MAC slots (paper: 0..31).
	AssessmentSlots int

	// Warmup runs the HELLO protocol alone before the first broadcast so
	// neighbor tables are populated (the paper's long runs make startup
	// transients negligible; our shorter runs skip them explicitly).
	Warmup sim.Duration
	// Drain is extra simulated time after the last request arrival so
	// in-flight broadcasts complete.
	Drain sim.Duration

	// Engine selects the simulation engine. The zero value (EngineAuto)
	// resolves from the rest of the configuration: sharded when
	// Shards > 0, otherwise the sequential oracle. All engines produce
	// byte-identical summaries; see Engine's documentation.
	Engine Engine
	// Shards is the sharded engine's worker/wheel count. It must be a
	// power of two (at most 64); 0 lets the engine choose
	// (DefaultShards). Setting Shards > 0 under EngineAuto selects the
	// sharded engine.
	Shards int
	// Arena, when non-nil, lets New reuse the bulk slab allocations of
	// the previous Network built through the same arena, on every
	// engine (see Arena's documentation for the ownership contract:
	// one live Network per arena, no concurrent use). Sweeps that
	// construct many same-size worlds back to back avoid paying the
	// allocator and collector for each one.
	Arena *Arena

	// DisableCollisions is an ablation switch: overlapping transmissions
	// no longer destroy each other, isolating the contribution of
	// collisions to the broadcast storm.
	DisableCollisions bool
	// IdealHello is an ablation switch: HELLO beacons reach every
	// in-range host instantly without consuming airtime, isolating the
	// cost and staleness of running neighbor discovery over the real MAC.
	IdealHello bool
	// LossRate injects independent per-reception Bernoulli loss
	// (fading/shadowing) on top of the unit-disk collision model.
	// 0 (the paper's model) disables it; must stay below 1.
	LossRate float64
	// CaptureRatio, when > 1, enables the capture effect: the stronger
	// of two overlapping frames survives when its free-space power
	// advantage reaches this ratio. 0 keeps the paper's model.
	CaptureRatio float64

	// Repair enables the reliable-broadcast extension: hosts advertise
	// the broadcast ids received in the last 10 s in their HELLOs and
	// unicast repairs to neighbors that missed them. Requires HELLO.
	Repair bool

	// RetainRecords keeps every per-broadcast record alive until the end
	// of the run so Records() can return them. By default a record is
	// folded into the run aggregates and released as soon as its
	// broadcast can no longer change — the memory fix that keeps long
	// runs O(active broadcasts) — after which Records() panics.
	RetainRecords bool

	// Telemetry, when non-nil, collects run time series (channel load,
	// contention, scheme decisions) on the collector's tick. Sampling is
	// observation-only: it schedules no events and draws no random
	// numbers, so an instrumented run produces the identical Summary
	// (asserted by TestTelemetryDoesNotPerturbSimulation).
	Telemetry *obs.Collector

	// Audit, when non-nil, attaches the runtime invariant auditor to the
	// scheduler, channel, MACs, frame pools, and neighbor tables. Like
	// Telemetry it is observation-only: it schedules no events and draws
	// no random numbers, so an audited run produces the identical Summary
	// (asserted by obs.TestAuditTransparency). Inspect the auditor's
	// Violations after Run.
	Audit *obs.Auditor

	// Seed selects the deterministic random streams.
	Seed uint64
}

// PaperMaxSpeedKMH returns the paper's per-map maximum roaming speed:
// 10 km/h on the 1x1 map, 30 on 3x3, 50 on 5x5, i.e. 10 km/h per unit.
func PaperMaxSpeedKMH(units int) float64 { return 10 * float64(units) }

// MaxSpeedMPS returns the fastest speed any host in this configuration
// can move at, in meters/second. It is the single source of truth for
// the mobility bound: the channel's spatial index sizes its drift budget
// from it and the invariant auditor checks every mover against it, so
// the two can never disagree. Every mobility model caps at MaxSpeedKMH.
// Call on a defaulted config (New defaults before using it).
func (c Config) MaxSpeedMPS() float64 {
	if c.Static {
		return 0
	}
	return mobility.KMHToMPS(c.MaxSpeedKMH)
}

// WithDefaults fills unset fields with the paper's parameters.
func (c Config) WithDefaults() Config {
	if c.Hosts == 0 {
		c.Hosts = 100
	}
	if c.MapUnits == 0 {
		c.MapUnits = 5
	}
	if c.UnitMeters == 0 {
		c.UnitMeters = 500
	}
	if c.Radius == 0 {
		c.Radius = 500
	}
	if c.MaxSpeedKMH == 0 && !c.Static {
		c.MaxSpeedKMH = PaperMaxSpeedKMH(c.MapUnits)
	}
	if c.Scheme == nil {
		c.Scheme = scheme.Flooding{}
	}
	if c.Requests == 0 {
		c.Requests = 100
	}
	if c.ArrivalSpread == 0 {
		c.ArrivalSpread = 2 * sim.Second
	}
	if c.HelloMode == HelloOff && (c.Scheme.NeedsHello() || c.Repair) {
		c.HelloMode = HelloFixed
	}
	if c.HelloInterval == 0 {
		c.HelloInterval = 1 * sim.Second
	}
	if c.ExpiryIntervals == 0 {
		c.ExpiryIntervals = neighbor.DefaultExpiryIntervals
	}
	if c.AssessmentSlots == 0 {
		c.AssessmentSlots = 31
	}
	if c.Warmup == 0 && c.HelloMode != HelloOff {
		// Give the HELLO protocol time to populate tables. The dynamic
		// interval additionally needs the neighborhood-variation
		// estimator (10 s window, detection delayed by up to two hello
		// intervals) to reach steady state before measurement begins.
		if c.HelloMode == HelloDynamic {
			c.Warmup = 30 * sim.Second
		} else {
			c.Warmup = 5 * sim.Second
		}
	}
	if c.Drain == 0 {
		c.Drain = 2 * sim.Second
	}
	return c
}

// Validate reports configuration errors after defaulting.
func (c Config) Validate() error {
	// NaN passes every range check below, and +Inf the sign checks.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"radius", c.Radius}, {"map unit", c.UnitMeters}, {"max speed", c.MaxSpeedKMH},
		{"loss rate", c.LossRate}, {"capture ratio", c.CaptureRatio},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("manet: %s %g is not finite", f.name, f.v)
		}
	}
	switch {
	case c.Hosts < 1:
		return errors.New("manet: need at least one host")
	case c.MapUnits < 1:
		return errors.New("manet: map must be at least 1x1 units")
	case c.Radius <= 0:
		return errors.New("manet: radius must be positive")
	case c.Requests < 0:
		return errors.New("manet: negative request count")
	case c.AssessmentSlots < 0:
		return errors.New("manet: negative assessment slots")
	case c.UnitMeters < 0:
		return fmt.Errorf("manet: negative map unit %g m", c.UnitMeters)
	case c.MaxSpeedKMH < 0:
		return fmt.Errorf("manet: negative max speed %g km/h", c.MaxSpeedKMH)
	case c.ArrivalSpread < 0:
		return fmt.Errorf("manet: negative arrival spread %v", c.ArrivalSpread)
	case c.HelloInterval < 0:
		return fmt.Errorf("manet: negative hello interval %v", c.HelloInterval)
	case c.Warmup < 0:
		return fmt.Errorf("manet: negative warmup %v", c.Warmup)
	case c.Drain < 0:
		return fmt.Errorf("manet: negative drain %v", c.Drain)
	}
	if len(c.Placement) > 0 && len(c.Placement) != c.Hosts {
		return fmt.Errorf("manet: placement has %d points for %d hosts", len(c.Placement), c.Hosts)
	}
	if c.Scheme.NeedsHello() && c.HelloMode == HelloOff {
		return fmt.Errorf("manet: scheme %s requires HELLO but HelloMode is off", c.Scheme.Name())
	}
	if c.Repair && c.HelloMode == HelloOff {
		return errors.New("manet: repair extension requires HELLO")
	}
	if c.LossRate < 0 || c.LossRate >= 1 {
		return fmt.Errorf("manet: loss rate %g outside [0, 1)", c.LossRate)
	}
	if c.CaptureRatio != 0 && c.CaptureRatio <= 1 {
		return fmt.Errorf("manet: capture ratio %g must be 0 (off) or greater than 1", c.CaptureRatio)
	}
	if _, _, err := c.resolveEngine(); err != nil {
		return err
	}
	return nil
}
