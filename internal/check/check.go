// Package check is the runtime invariant auditor: a passive observer
// that attaches to the simulator's existing hook points (the scheduler's
// audit hook, the channel/MAC/manet pool and outcome callbacks) and
// verifies conservation laws on every event of a live run.
//
// The zero-allocation event core (pooled frames, recycled event and
// transmission records, bound-once closures) is exactly the kind of
// machinery where a use-after-release or a dropped reception corrupts
// results silently instead of crashing. The auditor turns those silent
// corruptions into reported violations:
//
//   - Packet conservation: every transmission resolves to exactly one of
//     delivered / collided / lost per in-range receiver, and the totals
//     reconcile with the channel counters in metrics.Summary.
//   - Scheduler monotonicity: event timestamps never decrease, and
//     same-instant events fire in strict scheduling (seq) order.
//   - Pool lifecycle: no double-release and no use-after-release of phy
//     transmission records, mac pending records, or manet frames,
//     tracked per record with generation counters.
//   - Neighbor-table soundness: every table entry was heard within its
//     staleness bound and is still within the drift-expanded radio
//     range of its owner.
//   - Metric sanity: RE and SRB in [0, 1], latencies non-negative,
//     per-broadcast counts consistent (t <= r, r >= 1).
//
// An Auditor is pure observation: it schedules no events, draws no
// random numbers, and mutates no simulation state, so an audited run
// produces a byte-identical metrics.Summary to an unaudited one
// (asserted by the metamorphic suite in this package). When no auditor
// is attached every hook point is a nil check, so the disabled cost is
// zero allocations and a single predictable branch per hook.
package check

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
)

// MaxViolations bounds how many violations an Auditor records in full
// detail; further violations are counted but not stored, so a
// systemically broken run cannot exhaust memory with diagnostics.
const MaxViolations = 100

// Violation is one observed invariant breach, stamped with the
// simulated time it was detected at so it can be lined up against an
// internal/trace timeline of the same run.
type Violation struct {
	At        sim.Time
	Invariant string // which conservation law broke (e.g. "pool-lifecycle")
	Detail    string
}

// String formats the violation for logs and test failures.
func (v Violation) String() string {
	return fmt.Sprintf("[%v] %s: %s", v.At, v.Invariant, v.Detail)
}

// Invariant names used in Violation.Invariant.
const (
	InvScheduler    = "scheduler-monotonicity"
	InvPool         = "pool-lifecycle"
	InvConservation = "packet-conservation"
	InvNeighbor     = "neighbor-soundness"
	InvMobility     = "mobility-bound"
	InvMetrics      = "metric-sanity"
	InvShard        = "shard-barrier"
)

// recState tracks one pooled record's lifecycle. The generation counter
// increments on every acquire, so a violation can report which tenancy
// of a recycled record broke the contract.
type recState struct {
	pool string
	live bool
	gen  uint64
}

// Auditor verifies runtime invariants over one simulation run. Build it
// with New, attach it via manet.Config.Audit (or the individual layer
// SetAudit hooks), and read Violations or Err after the run. Like the
// simulation it observes, an Auditor is single-use and not safe for
// concurrent use; replica-level parallelism uses one Auditor per
// replica.
type Auditor struct {
	violations []Violation
	total      int

	// Scheduler monotonicity state.
	haveEvent bool
	lastAt    sim.Time
	lastSeq   uint64

	// Pool lifecycle: record identity -> state.
	recs map[any]*recState

	// Packet conservation counters. inflightCopies tracks copies of
	// transmissions whose airtime has not ended yet: a run stopped at its
	// deadline legitimately leaves transmissions (HELLO beacons, tail-end
	// rebroadcasts) in flight, and their copies are excluded from the
	// end-of-run reconciliation rather than reported as unaccounted.
	transmissions  int
	inRangeCopies  int
	inflightCopies int
	delivered      int
	collided       int
	lost           int

	// Cross-shard barrier monotonicity state.
	haveBarrier bool
	lastBarrier sim.Time

	summaryChecked bool
}

// New returns an empty auditor recording up to MaxViolations violations
// in detail.
func New() *Auditor {
	return &Auditor{recs: make(map[any]*recState)}
}

// report records one violation, respecting the detail cap.
func (a *Auditor) report(at sim.Time, invariant, format string, args ...any) {
	a.total++
	if len(a.violations) >= MaxViolations {
		return
	}
	a.violations = append(a.violations, Violation{
		At:        at,
		Invariant: invariant,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// Violations returns the recorded violations in detection order. The
// slice is the auditor's storage; callers must not modify it.
func (a *Auditor) Violations() []Violation { return a.violations }

// Total returns how many violations were detected, including any beyond
// the detail cap.
func (a *Auditor) Total() int { return a.total }

// Ok reports whether no invariant was violated.
func (a *Auditor) Ok() bool { return a.total == 0 }

// Err returns nil when no invariant was violated, or an error listing
// every recorded violation.
func (a *Auditor) Err() error {
	if a.total == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d invariant violation(s)", a.total)
	for _, v := range a.violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	if a.total > len(a.violations) {
		fmt.Fprintf(&b, "\n  ... and %d more", a.total-len(a.violations))
	}
	return errors.New(b.String())
}

// --- Scheduler monotonicity (sim.Scheduler.SetAuditHook) ---

// AuditEvent observes one event firing. The scheduler contract is that
// timestamps never decrease and that same-instant events fire in strict
// scheduling order, so seq must strictly increase within one instant.
func (a *Auditor) AuditEvent(at sim.Time, seq uint64) {
	if a.haveEvent {
		switch {
		case at < a.lastAt:
			a.report(at, InvScheduler, "clock moved backwards: event at %v after %v", at, a.lastAt)
		case at == a.lastAt && seq <= a.lastSeq:
			a.report(at, InvScheduler, "same-instant FIFO broken: seq %d fired after seq %d", seq, a.lastSeq)
		}
	}
	a.haveEvent = true
	a.lastAt = at
	a.lastSeq = seq
}

// --- Cross-shard time monotonicity (manet sharded engine barriers) ---

// AuditShardBarrier observes one conservative barrier of the sharded
// engine. Barriers must advance monotonically and the merged clock must
// never pass the barrier it just ran to.
func (a *Auditor) AuditShardBarrier(now, barrier sim.Time) {
	if a.haveBarrier && barrier < a.lastBarrier {
		a.report(now, InvShard, "barrier %v precedes previous barrier %v", barrier, a.lastBarrier)
	}
	a.haveBarrier = true
	a.lastBarrier = barrier
	if now > barrier {
		a.report(now, InvShard, "clock %v passed barrier %v", now, barrier)
	}
}

// AuditShardHead checks one shard wheel's head event against the merged
// clock at a barrier: a head in the past means the merged pop skipped
// an event that was due.
func (a *Auditor) AuditShardHead(now sim.Time, shard int, head sim.Time) {
	if head < now {
		a.report(now, InvShard, "shard %d head %v lags clock %v", shard, head, now)
	}
}

// --- Pool lifecycle (phy/mac/manet acquire-release-use hooks) ---

// state returns (creating if needed) the lifecycle record for rec.
func (a *Auditor) state(pool string, rec any) *recState {
	st, ok := a.recs[rec]
	if !ok {
		st = &recState{pool: pool}
		a.recs[rec] = st
	}
	return st
}

// AuditAcquire observes a pooled record being handed out (freshly
// allocated or recycled). Acquiring a record that is already live means
// the pool handed the same record to two owners.
func (a *Auditor) AuditAcquire(at sim.Time, pool string, rec any) {
	st := a.state(pool, rec)
	if st.live {
		a.report(at, InvPool, "%s: record acquired while still live (gen %d)", pool, st.gen)
	}
	st.live = true
	st.gen++
}

// AuditRelease observes a record returning to its pool. Releasing a
// record that is not live is a double release.
func (a *Auditor) AuditRelease(at sim.Time, pool string, rec any) {
	st := a.state(pool, rec)
	if !st.live {
		a.report(at, InvPool, "%s: double release (gen %d)", pool, st.gen)
	}
	st.live = false
}

// AuditUse observes a record being dereferenced at a point where it must
// be live (a frame going on the air, a transmission record finishing, a
// pending record starting). Records the auditor never saw acquired are
// ignored: layers without pooling (control frames, routing frames) pass
// through the same use points.
func (a *Auditor) AuditUse(at sim.Time, pool string, rec any) {
	st, ok := a.recs[rec]
	if !ok {
		return
	}
	if !st.live {
		a.report(at, InvPool, "%s: use after release (gen %d)", pool, st.gen)
	}
}

// --- Packet conservation (phy.Channel.SetAudit) ---

// AuditTransmit observes a frame going on the air with the given number
// of in-range receivers.
func (a *Auditor) AuditTransmit(at sim.Time, sender, receivers int) {
	if receivers < 0 {
		a.report(at, InvConservation, "transmission from radio %d with negative receiver count %d", sender, receivers)
		return
	}
	a.transmissions++
	a.inRangeCopies += receivers
	a.inflightCopies += receivers
}

// AuditTransmitEnd observes a transmission's airtime ending, after every
// copy resolved to an outcome.
func (a *Auditor) AuditTransmitEnd(at sim.Time, sender, receivers int) {
	a.inflightCopies -= receivers
	if a.inflightCopies < 0 {
		a.report(at, InvConservation, "transmission from radio %d ended %d more copies than started", sender, -a.inflightCopies)
		a.inflightCopies = 0
	}
}

// AuditDelivered observes one in-range copy arriving intact.
func (a *Auditor) AuditDelivered(at sim.Time, receiver int) { a.delivered++ }

// AuditCollided observes one in-range copy destroyed by overlap.
func (a *Auditor) AuditCollided(at sim.Time, receiver int) { a.collided++ }

// AuditLost observes one in-range copy dropped by the random loss model.
func (a *Auditor) AuditLost(at sim.Time, receiver int) { a.lost++ }

// --- Neighbor-table soundness (manet periodic sweep) ---

// AuditNeighborEntry checks one neighbor-table entry against ground
// truth: the entry must have been refreshed within its staleness bound
// (age <= bound), and the announced neighbor must still be within
// maxDist of the owner — the radio radius inflated by the maximum
// distance both hosts can have drifted since the HELLO was actually
// in range. The caller computes dist and maxDist from live positions.
func (a *Auditor) AuditNeighborEntry(at sim.Time, owner, id packet.NodeID, age, bound sim.Duration, dist, maxDist float64) {
	if age < 0 {
		a.report(at, InvNeighbor, "%v's entry for %v heard in the future (age %v)", owner, id, age)
		return
	}
	if age > bound {
		a.report(at, InvNeighbor, "%v's entry for %v stale: age %v exceeds bound %v", owner, id, age, bound)
	}
	if dist > maxDist {
		a.report(at, InvNeighbor, "%v's entry for %v unreachable: %.1fm apart, drift bound %.1fm", owner, id, dist, maxDist)
	}
}

// AuditMoverSpeed checks one host's instantaneous speed against the
// configured mobility bound. The bound is load-bearing, not cosmetic:
// the channel's spatial index converts it into a drift budget that
// decides how long a position snapshot stays valid, so a mobility model
// that exceeds it silently serves stale range queries. A tiny epsilon
// absorbs float round-off in speed reconstruction (hypot of velocity
// components).
func (a *Auditor) AuditMoverSpeed(at sim.Time, id packet.NodeID, speed, bound float64) {
	const eps = 1e-9
	if speed < 0 {
		a.report(at, InvMobility, "%v: negative speed %.3f m/s", id, speed)
		return
	}
	if speed > bound+eps {
		a.report(at, InvMobility, "%v: speed %.3f m/s exceeds configured bound %.3f m/s", id, speed, bound)
	}
}

// --- Metric sanity and end-of-run reconciliation (manet.summarize) ---

// AuditRecord checks one finished per-broadcast record: every
// transmitter first received the packet (t <= r), the source holds it
// (r >= 1), and the derived ratios and latency are in range.
func (a *Auditor) AuditRecord(at sim.Time, rec *metrics.BroadcastRecord) {
	if rec.Received < 1 {
		a.report(at, InvMetrics, "%v: received count %d < 1 (source holds the packet)", rec.ID, rec.Received)
	}
	if rec.Reachable < 1 {
		a.report(at, InvMetrics, "%v: reachable count %d < 1 (source is reachable from itself)", rec.ID, rec.Reachable)
	}
	if rec.Transmitted > rec.Received {
		a.report(at, InvMetrics, "%v: transmitted %d exceeds received %d", rec.ID, rec.Transmitted, rec.Received)
	}
	if re := rec.RE(); re < 0 || re > 1 {
		a.report(at, InvMetrics, "%v: RE %g outside [0, 1]", rec.ID, re)
	}
	if srb := rec.SRB(); srb < 0 || srb > 1 {
		a.report(at, InvMetrics, "%v: SRB %g outside [0, 1]", rec.ID, srb)
	}
	if lat := rec.Latency(); lat < 0 {
		a.report(at, InvMetrics, "%v: negative latency %v", rec.ID, lat)
	}
}

// AuditSummary reconciles the run summary against the per-copy
// accounting: every in-range copy must have resolved to exactly one
// outcome, and the channel counters the summary reports must equal the
// outcomes the auditor observed. lost is the channel's own count of
// copies dropped by the loss model (not surfaced in the Summary).
func (a *Auditor) AuditSummary(at sim.Time, sum metrics.Summary, lost int) {
	a.summaryChecked = true
	if got := a.delivered + a.collided + a.lost; got != a.inRangeCopies-a.inflightCopies {
		a.report(at, InvConservation,
			"copies unaccounted for: %d in-range copies (%d still in flight), %d resolved (%d delivered + %d collided + %d lost)",
			a.inRangeCopies, a.inflightCopies, got, a.delivered, a.collided, a.lost)
	}
	if sum.Transmissions != a.transmissions {
		a.report(at, InvConservation, "summary reports %d transmissions, audited %d", sum.Transmissions, a.transmissions)
	}
	if sum.Deliveries != a.delivered {
		a.report(at, InvConservation, "summary reports %d deliveries, audited %d", sum.Deliveries, a.delivered)
	}
	if sum.Collisions != a.collided {
		a.report(at, InvConservation, "summary reports %d collisions, audited %d", sum.Collisions, a.collided)
	}
	if lost != a.lost {
		a.report(at, InvConservation, "channel reports %d lost copies, audited %d", lost, a.lost)
	}
	if sum.MeanRE < 0 || sum.MeanRE > 1 {
		a.report(at, InvMetrics, "MeanRE %g outside [0, 1]", sum.MeanRE)
	}
	if sum.MeanSRB < 0 || sum.MeanSRB > 1 {
		a.report(at, InvMetrics, "MeanSRB %g outside [0, 1]", sum.MeanSRB)
	}
	if sum.MeanLatency < 0 || sum.LatencyP50 < 0 || sum.LatencyP95 < 0 {
		a.report(at, InvMetrics, "negative latency aggregate: mean %v p50 %v p95 %v",
			sum.MeanLatency, sum.LatencyP50, sum.LatencyP95)
	}
	if sum.HelloSent < 0 || sum.Broadcasts < 0 {
		a.report(at, InvMetrics, "negative counter: hello %d broadcasts %d", sum.HelloSent, sum.Broadcasts)
	}
}

// SummaryChecked reports whether AuditSummary ran (i.e. the audited run
// actually reached its end-of-run reconciliation).
func (a *Auditor) SummaryChecked() bool { return a.summaryChecked }

// ResumeConservation seeds the packet-conservation counters with the
// traffic a restored checkpoint already accounted for, so an auditor
// attached to a resumed run reconciles against the full-run summary.
// delivered, collided, and lost are the copies that resolved before the
// checkpoint; inflight counts the copies of restored transmissions still
// on the air, whose outcomes (and AuditTransmitEnd) the auditor will
// observe after resume without having seen their AuditTransmit.
func (a *Auditor) ResumeConservation(transmissions, delivered, collided, lost, inflight int) {
	a.transmissions += transmissions
	a.delivered += delivered
	a.collided += collided
	a.lost += lost
	a.inflightCopies += inflight
	a.inRangeCopies += delivered + collided + lost + inflight
}
