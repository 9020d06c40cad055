package experiment

import (
	"fmt"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/manet"
	"repro/internal/obs"
	"repro/internal/scheme"
)

// panicScheme detonates on the first rebroadcast decision, simulating a
// bug deep inside a simulation run on a worker goroutine.
type panicScheme struct{}

func (panicScheme) Name() string        { return "panic" }
func (panicScheme) NeedsHello() bool    { return false }
func (panicScheme) NeedsPosition() bool { return false }
func (panicScheme) NewJudge(scheme.HostView, scheme.Reception) scheme.Judge {
	panic("panicScheme detonated")
}

// countScheme counts decisions so tests can observe whether a matrix
// point actually simulated.
type countScheme struct{ judges *atomic.Int64 }

func (countScheme) Name() string        { return "count" }
func (countScheme) NeedsHello() bool    { return false }
func (countScheme) NeedsPosition() bool { return false }
func (c countScheme) NewJudge(scheme.HostView, scheme.Reception) scheme.Judge {
	c.judges.Add(1)
	return scheme.Flooding{}.NewJudge(nil, scheme.Reception{})
}

// recoverMatrixPanic runs fn (which must panic) and returns the panic
// message. The worker pool must have shut down by the time the panic
// reaches us, so a hung test here means the pool deadlocked.
func recoverMatrixPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("matrix with failing point did not panic")
		}
		msg = fmt.Sprint(r)
	}()
	fn()
	return ""
}

func TestRunMatrixReportsInvalidConfigContext(t *testing.T) {
	cfgs := []manet.Config{
		{Scheme: scheme.Flooding{}, MapUnits: 1, Hosts: 8, Requests: 2},
		{Scheme: scheme.Flooding{}, MapUnits: 1, Hosts: -1, Requests: 2}, // fails Validate
	}
	o := Options{Replicas: 2, BaseSeed: 50, Workers: 2}
	msg := recoverMatrixPanic(t, func() { RunMatrix(cfgs, o) })
	// Either replica of point 1 may fail first on two workers.
	if !regexp.MustCompile(`point 1 replica (0 \(seed 1050|1 \(seed 1051)\)`).MatchString(msg) {
		t.Errorf("panic lacks failing coordinates: %q", msg)
	}
	if !strings.Contains(msg, "at least one host") {
		t.Errorf("panic lacks the underlying error: %q", msg)
	}
}

// An Arena backs one live Network, and RunMatrix copies each Config to
// every replica on every worker: it must refuse the config up front
// rather than let workers race on the arena's slabs.
func TestRunMatrixRefusesSharedArena(t *testing.T) {
	var judges atomic.Int64
	plain := manet.Config{Scheme: countScheme{&judges}, MapUnits: 1, Hosts: 8, Requests: 2}
	withArena := plain
	withArena.Shards = 2
	withArena.Arena = manet.NewArena()
	o := Options{Replicas: 3, Workers: 2}
	msg := recoverMatrixPanic(t, func() { RunMatrix([]manet.Config{plain, withArena, withArena}, o) })
	if !strings.Contains(msg, "point 1") || !strings.Contains(msg, "an Arena backs one live Network") {
		t.Errorf("panic does not name the point and the contract: %q", msg)
	}
	if n := judges.Load(); n != 0 {
		t.Errorf("%d scheme decisions ran before the refusal", n)
	}
}

// A collector or an auditor observes one run, and RunMatrix copies each
// Config to every replica, so the replicas would all feed one observer —
// concurrently, with several workers. The refusal names the point and
// comes before any worker starts.
func TestRunMatrixRefusesSharedObserver(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		attach     func(*manet.Config)
	}{
		{"telemetry", "a collector observes one run", func(c *manet.Config) { c.Telemetry = obs.New(0) }},
		{"audit", "an auditor observes one run", func(c *manet.Config) { c.Audit = obs.NewAuditor() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var judges atomic.Int64
			plain := manet.Config{Scheme: countScheme{&judges}, MapUnits: 1, Hosts: 8, Requests: 2}
			observed := plain
			tc.attach(&observed)
			o := Options{Replicas: 2, Workers: 2}
			msg := recoverMatrixPanic(t, func() { RunMatrix([]manet.Config{plain, observed}, o) })
			if !strings.Contains(msg, "point 1") || !strings.Contains(msg, tc.want) {
				t.Errorf("panic does not name the point and the contract: %q", msg)
			}
			if n := judges.Load(); n != 0 {
				t.Errorf("%d scheme decisions ran before the refusal", n)
			}
		})
	}
}

func TestRunMatrixRecoversSimulationPanic(t *testing.T) {
	cfgs := []manet.Config{
		{Scheme: panicScheme{}, MapUnits: 1, Hosts: 8, Requests: 2},
	}
	o := Options{Replicas: 1, BaseSeed: 7, Workers: 2}
	msg := recoverMatrixPanic(t, func() { RunMatrix(cfgs, o) })
	if !strings.Contains(msg, "point 0 replica 0 (seed 7)") {
		t.Errorf("panic lacks failing coordinates: %q", msg)
	}
	if !strings.Contains(msg, "panic: panicScheme detonated") {
		t.Errorf("panic lacks the recovered panic value: %q", msg)
	}
}

func TestRunMatrixFailsFastAfterError(t *testing.T) {
	var judges atomic.Int64
	cfgs := []manet.Config{
		{Scheme: scheme.Flooding{}, MapUnits: 1, Hosts: -1, Requests: 2}, // fails immediately
		{Scheme: countScheme{&judges}, MapUnits: 1, Hosts: 8, Requests: 2},
		{Scheme: countScheme{&judges}, MapUnits: 1, Hosts: 8, Requests: 2},
	}
	// One worker makes the schedule deterministic: the failing point is
	// consumed first, so every later task must be drained unrun.
	o := Options{Replicas: 2, Workers: 1}
	recoverMatrixPanic(t, func() { RunMatrix(cfgs, o) })
	if n := judges.Load(); n != 0 {
		t.Errorf("matrix kept simulating after the error: %d decisions ran", n)
	}
}

func TestOptionsRejectSeedCollision(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Replicas = %d did not panic", SeedStride)
		}
	}()
	// SeedStride-1 replicas per point is the documented maximum.
	_ = Options{Replicas: SeedStride - 1}.WithDefaults()
	_ = Options{Replicas: SeedStride}.WithDefaults()
}
