package check_test

import (
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
)

func wantViolations(t *testing.T, a *check.Auditor, n int, invariant string) {
	t.Helper()
	if a.Total() != n {
		t.Fatalf("Total() = %d, want %d (violations: %v)", a.Total(), n, a.Violations())
	}
	if n == 0 {
		if !a.Ok() || a.Err() != nil {
			t.Fatalf("clean auditor reports Ok=%v Err=%v", a.Ok(), a.Err())
		}
		return
	}
	if a.Ok() {
		t.Fatal("Ok() true despite violations")
	}
	for _, v := range a.Violations() {
		if v.Invariant != invariant {
			t.Fatalf("violation %v, want invariant %q", v, invariant)
		}
	}
}

func TestAuditEventAccepts(t *testing.T) {
	a := check.New()
	a.AuditEvent(sim.Time(0), 1)
	a.AuditEvent(sim.Time(0), 2)  // same instant, increasing seq
	a.AuditEvent(sim.Time(10), 1) // later instant may reuse small seq
	a.AuditEvent(sim.Time(10), 7)
	a.AuditEvent(sim.Time(11), 3)
	wantViolations(t, a, 0, "")
}

func TestAuditEventClockBackwards(t *testing.T) {
	a := check.New()
	a.AuditEvent(sim.Time(10), 1)
	a.AuditEvent(sim.Time(9), 2)
	wantViolations(t, a, 1, check.InvScheduler)
}

func TestAuditEventSameInstantFIFO(t *testing.T) {
	a := check.New()
	a.AuditEvent(sim.Time(10), 5)
	a.AuditEvent(sim.Time(10), 5) // replay
	a.AuditEvent(sim.Time(10), 4) // regression
	wantViolations(t, a, 2, check.InvScheduler)
}

func TestPoolLifecycleClean(t *testing.T) {
	a := check.New()
	rec := new(int)
	a.AuditAcquire(0, "p", rec)
	a.AuditUse(1, "p", rec)
	a.AuditRelease(2, "p", rec)
	a.AuditAcquire(3, "p", rec) // second tenancy: clean only if the release ended the first
	a.AuditRelease(4, "p", rec)
	wantViolations(t, a, 0, "")
}

func TestPoolDoubleAcquire(t *testing.T) {
	a := check.New()
	rec := new(int)
	a.AuditAcquire(0, "p", rec)
	a.AuditAcquire(1, "p", rec)
	wantViolations(t, a, 1, check.InvPool)
}

func TestPoolDoubleRelease(t *testing.T) {
	a := check.New()
	rec := new(int)
	a.AuditAcquire(0, "p", rec)
	a.AuditRelease(1, "p", rec)
	a.AuditRelease(2, "p", rec)
	wantViolations(t, a, 1, check.InvPool)
}

func TestPoolUseAfterRelease(t *testing.T) {
	a := check.New()
	rec := new(int)
	a.AuditAcquire(0, "p", rec)
	a.AuditRelease(1, "p", rec)
	a.AuditUse(2, "p", rec)
	wantViolations(t, a, 1, check.InvPool)
}

func TestPoolUseOfUntrackedRecordIgnored(t *testing.T) {
	a := check.New()
	a.AuditUse(0, "p", new(int)) // e.g. an unpooled control frame
	wantViolations(t, a, 0, "")
}

func TestAuditTransmitNegativeReceivers(t *testing.T) {
	a := check.New()
	a.AuditTransmit(0, 3, -1)
	wantViolations(t, a, 1, check.InvConservation)
}

func TestAuditTransmitEndUnderflow(t *testing.T) {
	a := check.New()
	a.AuditTransmit(0, 3, 2)
	a.AuditTransmitEnd(1, 3, 5) // ends more copies than ever started
	wantViolations(t, a, 1, check.InvConservation)
}

func TestAuditNeighborEntry(t *testing.T) {
	a := check.New()
	// Fresh, in range: clean. age == bound is legal (the expiry event
	// fires at exactly that instant, after the sweep observes it).
	a.AuditNeighborEntry(0, 1, 2, sim.Second, 2*sim.Second, 400, 500)
	a.AuditNeighborEntry(0, 1, 2, 2*sim.Second, 2*sim.Second, 500, 500)
	wantViolations(t, a, 0, "")

	a.AuditNeighborEntry(0, 1, 2, -sim.Second, 2*sim.Second, 0, 500) // heard in the future
	wantViolations(t, a, 1, check.InvNeighbor)

	b := check.New()
	b.AuditNeighborEntry(0, 1, 2, 3*sim.Second, 2*sim.Second, 400, 500) // stale
	b.AuditNeighborEntry(0, 1, 2, sim.Second, 2*sim.Second, 501, 500)   // out of range
	wantViolations(t, b, 2, check.InvNeighbor)
}

func TestAuditRecord(t *testing.T) {
	bid := packet.BroadcastID{Source: 1, Seq: 1}

	good := metrics.MakeBroadcastRecord(bid, 0, 10)
	good.Received = 8
	good.Transmitted = 5
	a := check.New()
	a.AuditRecord(0, &good)
	wantViolations(t, a, 0, "")

	// A record nothing ever received (Received 0 contradicts "the source
	// holds the packet") with an impossible transmit count.
	bad := metrics.MakeBroadcastRecord(bid, 0, 0)
	bad.Transmitted = 1
	b := check.New()
	b.AuditRecord(0, &bad)
	if b.Ok() {
		t.Fatal("no violations for inconsistent record")
	}
	for _, v := range b.Violations() {
		if v.Invariant != check.InvMetrics {
			t.Fatalf("violation %v, want invariant %q", v, check.InvMetrics)
		}
	}
}

func TestAuditSummaryClean(t *testing.T) {
	a := check.New()
	a.AuditTransmit(0, 0, 2)
	a.AuditDelivered(1, 1)
	a.AuditCollided(1, 2)
	a.AuditTransmitEnd(1, 0, 2)
	a.AuditTransmit(2, 1, 3) // still in flight at summary time
	if a.SummaryChecked() {
		t.Fatal("SummaryChecked before AuditSummary")
	}
	a.AuditSummary(3, metrics.Summary{Transmissions: 2, Deliveries: 1, Collisions: 1}, 0)
	if !a.SummaryChecked() {
		t.Fatal("SummaryChecked false after AuditSummary")
	}
	wantViolations(t, a, 0, "")
}

func TestAuditSummaryMismatches(t *testing.T) {
	a := check.New()
	a.AuditTransmit(0, 0, 2)
	a.AuditDelivered(1, 1)
	a.AuditTransmitEnd(1, 0, 2) // second copy vanished without an outcome
	a.AuditSummary(2, metrics.Summary{Transmissions: 5, Deliveries: 5, Collisions: 5}, 5)
	// copies unaccounted + transmissions + deliveries + collisions + lost.
	wantViolations(t, a, 5, check.InvConservation)
}

func TestAuditSummarySanity(t *testing.T) {
	a := check.New()
	a.AuditSummary(0, metrics.Summary{
		MeanRE:      1.5,
		MeanSRB:     -0.1,
		MeanLatency: -sim.Second,
		HelloSent:   -1,
	}, 0)
	wantViolations(t, a, 4, check.InvMetrics)
}

func TestViolationCapAndErr(t *testing.T) {
	a := check.New()
	for i := 0; i < check.MaxViolations+3; i++ {
		a.AuditTransmit(sim.Time(i), 0, -1)
	}
	if want := check.MaxViolations + 3; a.Total() != want {
		t.Fatalf("Total = %d, want %d", a.Total(), want)
	}
	if len(a.Violations()) != check.MaxViolations {
		t.Fatalf("stored %d violations, want %d", len(a.Violations()), check.MaxViolations)
	}
	err := a.Err()
	if err == nil {
		t.Fatal("Err() nil despite violations")
	}
	if !strings.Contains(err.Error(), "and 3 more") {
		t.Fatalf("Err() = %q, want overflow note", err)
	}
	if s := a.Violations()[0].String(); !strings.Contains(s, check.InvConservation) {
		t.Fatalf("Violation.String() = %q, want invariant name", s)
	}
}
