package manet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// resumeSchemes is the scheme matrix of the resume-equivalence
// headline: the paper's flooding baseline, the fixed counter scheme,
// and the three adaptive schemes (counter, location, neighbor
// coverage).
var resumeSchemes = []struct {
	name string
	s    scheme.Scheme
}{
	{"flooding", scheme.Flooding{}},
	{"counter", scheme.Counter{C: 3}},
	{"adaptive-counter", scheme.AdaptiveCounter{}},
	{"adaptive-location", scheme.AdaptiveLocation{}},
	{"neighbor-coverage", scheme.NeighborCoverage{}},
}

// resumeBase is the shared world shape of the resume tests: mobile
// hosts, enough requests that broadcasts overlap, small enough to run
// the full matrix quickly.
func resumeBase(s scheme.Scheme, seed uint64) Config {
	return Config{
		Scheme: s, MapUnits: 3, Hosts: 30, Requests: 8, Seed: seed,
	}
}

// resumeStatic is the resume tests' motionless world: flooding over an
// explicit placement drawn from the seed, declared Static, so the
// channel serves receivers from its per-snapshot neighbour memo. The
// memo is derived state and not in the document: a restored run starts
// without one and has to finish byte-identically all the same.
func resumeStatic(seed uint64) Config {
	cfg := resumeBase(scheme.Flooding{}, seed)
	rng := sim.NewRNG(seed)
	side := float64(cfg.MapUnits) * 500
	cfg.Static = true
	cfg.Placement = make([]geom.Point, cfg.Hosts)
	for i := range cfg.Placement {
		cfg.Placement[i] = geom.Point{X: rng.UniformFloat(0, side), Y: rng.UniformFloat(0, side)}
	}
	return cfg
}

// captureCheckpoints runs cfg to completion, checkpointing at roughly
// 25/50/75% of the run, and returns the encoded checkpoints plus the
// run's summary (which must be unperturbed by checkpointing).
func captureCheckpoints(t *testing.T, cfg Config) ([][]byte, metrics.Summary) {
	t.Helper()
	baseline, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Run()

	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bufs [][]byte
	net.CheckpointEvery = sim.Duration(want.SimulatedTime) / 4
	net.CheckpointHook = func(sim.Time) error {
		if len(bufs) >= 3 {
			return nil
		}
		var buf bytes.Buffer
		if err := net.Checkpoint(&buf); err != nil {
			return err
		}
		bufs = append(bufs, buf.Bytes())
		return nil
	}
	got, err := net.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("checkpointing perturbed the run:\nhooked: %+v\nplain:  %+v", got, want)
	}
	if len(bufs) != 3 {
		t.Fatalf("captured %d checkpoints, want 3", len(bufs))
	}
	return bufs, want
}

// TestResumeEquivalenceMatrix is the PR's headline: for every scheme
// over the mobile world, and for the static placed world, on every seed
// and engine, a run restored from a checkpoint taken at 25, 50, or 75%
// of the way through must produce the byte-identical Summary of the
// uninterrupted run.
func TestResumeEquivalenceMatrix(t *testing.T) {
	engines := []struct {
		name   string
		apply  func(*Config)
		shards int
	}{
		{"sequential", func(*Config) {}, 0},
		{"sharded4", func(c *Config) { c.Engine = EngineSharded; c.Shards = 4 }, 4},
	}
	type world struct {
		name string
		cfg  func(seed uint64) Config
	}
	var worlds []world
	for _, sc := range resumeSchemes {
		worlds = append(worlds, world{sc.name, func(seed uint64) Config { return resumeBase(sc.s, seed) }})
	}
	worlds = append(worlds, world{"static-placement", resumeStatic})
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			for _, eng := range engines {
				t.Run(eng.name, func(t *testing.T) {
					for seed := uint64(1); seed <= 3; seed++ {
						cfg := w.cfg(seed)
						eng.apply(&cfg)
						bufs, want := captureCheckpoints(t, cfg)
						for frac, buf := range bufs {
							restored, err := RestoreNetwork(bytes.NewReader(buf), cfg)
							if err != nil {
								t.Fatalf("seed %d checkpoint %d: %v", seed, frac, err)
							}
							if restored.ShardCount() != eng.shards {
								t.Fatalf("restored onto %d shards, want %d", restored.ShardCount(), eng.shards)
							}
							if got := restored.Run(); got != want {
								t.Fatalf("seed %d checkpoint at ~%d%%: resumed summary diverges:\nresumed:  %+v\nstraight: %+v",
									seed, 25*(frac+1), got, want)
							}
						}
					}
				})
			}
		})
	}
}

// TestResumeEquivalenceRepairLoss covers the stateful extensions in one
// resume cell: repair advertisements/NACKs in flight, Bernoulli loss
// stream state, and the capture effect.
func TestResumeEquivalenceRepairLoss(t *testing.T) {
	cfg := Config{
		Scheme: scheme.AdaptiveCounter{}, MapUnits: 3, Hosts: 30, Requests: 8,
		Repair: true, LossRate: 0.15, CaptureRatio: 2, Seed: 11,
		Warmup: 2 * sim.Second,
	}
	bufs, want := captureCheckpoints(t, cfg)
	for frac, buf := range bufs {
		restored, err := RestoreNetwork(bytes.NewReader(buf), cfg)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", frac, err)
		}
		if got := restored.Run(); got != want {
			t.Fatalf("checkpoint at ~%d%%: resumed summary diverges:\nresumed:  %+v\nstraight: %+v",
				25*(frac+1), got, want)
		}
	}
}

// TestRestoredRunAuditClean restores into a network with the invariant
// auditor attached: the resumed half of the run must be violation-free
// and still produce the original summary (the auditor is part of the
// configuration digest's blind spot by design — it is observation-only).
func TestRestoredRunAuditClean(t *testing.T) {
	cfg := resumeBase(scheme.AdaptiveCounter{}, 7)
	bufs, want := captureCheckpoints(t, cfg)

	audited := cfg
	audited.Audit = check.New()
	restored, err := RestoreNetwork(bytes.NewReader(bufs[1]), audited)
	if err != nil {
		t.Fatal(err)
	}
	got := restored.Run()
	if err := audited.Audit.Err(); err != nil {
		t.Fatalf("restored run reported violations: %v", err)
	}
	if !audited.Audit.SummaryChecked() {
		t.Fatal("auditor never checked the restored summary")
	}
	if got != want {
		t.Fatalf("audited resume diverges:\nresumed:  %+v\nstraight: %+v", got, want)
	}
}

// TestForkDivergedSeed pins the fork-for-what-if contract: the same
// checkpoint restored twice yields one run that reproduces the original
// and one — re-seeded via DivergeSeed — that explores a different
// future from the identical past.
func TestForkDivergedSeed(t *testing.T) {
	cfg := resumeBase(scheme.AdaptiveCounter{}, 3)
	bufs, want := captureCheckpoints(t, cfg)

	replay, err := RestoreNetwork(bytes.NewReader(bufs[0]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := replay.Run(); got != want {
		t.Fatalf("replay fork diverged:\nreplay:   %+v\nstraight: %+v", got, want)
	}

	fork, err := RestoreNetwork(bytes.NewReader(bufs[0]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fork.DivergeSeed(0xdead)
	if got := fork.Run(); got == want {
		t.Fatalf("diverged-seed fork reproduced the original summary %+v", got)
	}
}

// TestRestoreIntoArena restores sharded checkpoints into slab memory
// reused from a previous restored world: arena reuse must not leak any
// prior state into the resumed run. One arena serves a mobile world and
// then two static worlds of the same population and different
// placements, so a neighbour memo surviving from the world before would
// hand the next one the wrong receivers.
func TestRestoreIntoArena(t *testing.T) {
	arena := NewArena()
	for _, cfg := range []Config{
		resumeBase(scheme.NeighborCoverage{}, 5),
		resumeStatic(5),
		resumeStatic(6),
	} {
		cfg.Engine = EngineSharded
		cfg.Shards = 4
		bufs, want := captureCheckpoints(t, cfg)

		cfg.Arena = arena
		for round := 0; round < 2; round++ {
			restored, err := RestoreNetwork(bytes.NewReader(bufs[2]), cfg)
			if err != nil {
				t.Fatalf("static=%v seed %d round %d: %v", cfg.Static, cfg.Seed, round, err)
			}
			if got := restored.Run(); got != want {
				t.Fatalf("static=%v seed %d round %d: arena-restored summary diverges:\nresumed:  %+v\nstraight: %+v",
					cfg.Static, cfg.Seed, round, got, want)
			}
		}
	}
}

// TestCheckpointUnsupportedConfigs pins the refusal list: telemetry and
// movers without snapshot support must error at checkpoint time instead
// of writing a document that cannot resume.
func TestCheckpointUnsupportedConfigs(t *testing.T) {
	cases := []struct {
		name  string
		apply func(*Config)
	}{
		{"telemetry", func(c *Config) { c.Telemetry = obs.New(sim.Second) }},
		{"groups", func(c *Config) { c.Groups = 3 }},
		{"waypoint", func(c *Config) { c.Mobility = MobilityWaypoint }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := resumeBase(scheme.Flooding{}, 1)
			tc.apply(&cfg)
			net, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			if err := net.Checkpoint(&bytes.Buffer{}); err == nil {
				t.Fatal("Checkpoint accepted an unsupported configuration")
			}
		})
	}
}

// TestRestoreContradictoryConfig pins the digest check: restoring under
// any configuration that would change the event sequence is an error,
// not a silent divergence.
func TestRestoreContradictoryConfig(t *testing.T) {
	cfg := resumeBase(scheme.Counter{C: 3}, 2)
	bufs, _ := captureCheckpoints(t, cfg)

	contradictions := []struct {
		name  string
		apply func(*Config)
	}{
		{"different-seed", func(c *Config) { c.Seed = 99 }},
		{"different-scheme", func(c *Config) { c.Scheme = scheme.Flooding{} }},
		{"different-hosts", func(c *Config) { c.Hosts = 31 }},
		{"different-requests", func(c *Config) { c.Requests = 9 }},
		{"different-engine", func(c *Config) { c.Engine = EngineSharded; c.Shards = 4 }},
		{"loss-enabled", func(c *Config) { c.LossRate = 0.1 }},
	}
	for _, tc := range contradictions {
		t.Run(tc.name, func(t *testing.T) {
			bad := cfg
			tc.apply(&bad)
			if _, err := RestoreNetwork(bytes.NewReader(bufs[0]), bad); err == nil {
				t.Fatal("RestoreNetwork accepted a contradictory configuration")
			}
		})
	}

	t.Run("truncated", func(t *testing.T) {
		if _, err := RestoreNetwork(bytes.NewReader(bufs[0][:len(bufs[0])/2]), cfg); err == nil {
			t.Fatal("RestoreNetwork accepted a truncated checkpoint")
		}
	})
}

// TestRestoreForgedPoolDepth forges each checkpointed free-list or pool
// depth to -1. Such a document is well-formed for the codec, so restore
// is where it has to be refused: an error naming the depth, not a slice
// out of range or a depth silently read as zero.
func TestRestoreForgedPoolDepth(t *testing.T) {
	sequential := resumeBase(scheme.Counter{C: 3}, 2)
	sharded := sequential
	sharded.Engine, sharded.Shards = EngineSharded, 4
	seqBufs, _ := captureCheckpoints(t, sequential)
	shBufs, _ := captureCheckpoints(t, sharded)

	forgeries := []struct {
		name    string
		sharded bool
		forge   func(*snapshot.Checkpoint)
		want    string
	}{
		{"Sched.FreeLen", false, func(ck *snapshot.Checkpoint) { ck.Sched.FreeLen = -1 }, "free-list depth"},
		{"Sched.Lanes.FreeLen", true, func(ck *snapshot.Checkpoint) { ck.Sched.Lanes[2].FreeLen = -1 }, "lane 2 has negative free-list depth"},
		{"Channel.TxFreeLen", false, func(ck *snapshot.Checkpoint) { ck.Channel.TxFreeLen = -1 }, "transmission-pool depth"},
		{"Hosts.MAC.FreeLen", false, func(ck *snapshot.Checkpoint) { ck.Hosts[0].MAC.FreeLen = -1 }, "pending-pool depth"},
		{"Hosts.PrFree", false, func(ck *snapshot.Checkpoint) { ck.Hosts[0].PrFree = -1 }, "decision-pool depth"},
		{"Net.SetPool", false, func(ck *snapshot.Checkpoint) { ck.Net.SetPool = -1 }, "set-pool depth"},
		{"Net.FramePool", false, func(ck *snapshot.Checkpoint) { ck.Net.FramePool = -1 }, "frame-pool depth"},
		{"Net.HelloPool", false, func(ck *snapshot.Checkpoint) { ck.Net.HelloPool = -1 }, "hello-pool depth"},
	}
	for _, tc := range forgeries {
		t.Run(tc.name, func(t *testing.T) {
			cfg, doc := sequential, seqBufs[1]
			if tc.sharded {
				cfg, doc = sharded, shBufs[1]
			}
			ck, err := snapshot.Decode(doc)
			if err != nil {
				t.Fatal(err)
			}
			tc.forge(ck)
			// The forgery survives the codec: only restore can refuse it.
			if ck, err = snapshot.Decode(snapshot.Append(nil, ck)); err != nil {
				t.Fatal(err)
			}
			_, err = RestoreCheckpoint(ck, cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore returned %v, want an error naming the %s", err, tc.want)
			}
		})
	}
}

// TestCheckpointDigestPinned pins the full v1 digest of one fixed
// config, literal recorded at 30b7406. RestoreNetwork refuses on any
// difference, so a change to the format string — a dropped slot, a
// renamed key — orphans every checkpoint already on disk; this is the
// test that has to be edited to do that.
func TestCheckpointDigestPinned(t *testing.T) {
	cfg := resumeBase(scheme.Counter{C: 3}, 2)
	cfg.LossRate = 0.1
	cfg.IdealHello = true
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	const want = `v1 hosts=30 map=3 unit=500 radius=500 speed=30 static=false mobility=0 pause=0 groups=0 spread=0 placement=[] ` +
		`scheme="C=3" requests=8 arrival=2000000 hello=0 hi=1000000 dhi={NVMax:0.02 HIMin:1s HIMax:10s} expiry=2 slots=31 warmup=0 drain=2000000 ` +
		`timing={BitRateMbps:1 PLCPPreamble:144µs PLCPHeader:48µs SlotTime:20µs SIFS:10µs DIFS:50µs CWMin:31 CWMax:1023 AssessmentMax:31} ` +
		`engine=1 shards=0 nocoll=false idealhello=true nogrid=false nointerf=false nodense=false noladder=false ` +
		`loss=0.1 capture=0 repair=false window=10000000 retain=false seed=2`
	if got := net.checkpointDigest(); got != want {
		t.Fatalf("checkpoint digest changed; earlier checkpoints no longer resume:\n got: %s\nwant: %s", got, want)
	}
}

// TestCheckpointDocumentsPinned pins the bytes of every document one
// adaptive-counter run writes at a 10 s cadence, of every document a
// network restored from its middle document writes after that, and of
// every document of two worlds built back to back through one Arena (the
// second reuses dedup tables the first one checkpointed). A checkpoint
// keeps incremental state between calls — the dedup tables' ordered
// logs, the pooled document and encode buffer — and none of it may show
// in the bytes: the literal was recorded at a6c75fa, before any of that
// state existed.
func TestCheckpointDocumentsPinned(t *testing.T) {
	cfg := Config{Scheme: scheme.AdaptiveCounter{}, MapUnits: 5, Hosts: 100, Requests: 120, Seed: 4}
	sum := sha256.New()
	total := 0
	record := func(net *Network) [][]byte {
		t.Helper()
		var docs [][]byte
		net.CheckpointEvery = 10 * sim.Second
		net.CheckpointHook = func(sim.Time) error {
			var buf bytes.Buffer
			if err := net.Checkpoint(&buf); err != nil {
				return err
			}
			sum.Write(buf.Bytes())
			docs = append(docs, buf.Bytes())
			return nil
		}
		if _, err := net.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		total += len(docs)
		return docs
	}
	mustNew := func(cfg Config) *Network {
		t.Helper()
		net, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}

	docs := record(mustNew(cfg))
	restored, err := RestoreNetwork(bytes.NewReader(docs[len(docs)/2]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	record(restored)
	arena := cfg
	arena.Arena = NewArena()
	for _, seed := range []uint64{5, 6} {
		arena.Seed = seed
		record(mustNew(arena))
	}

	const want = "309c9858c8c28d08a373eb1366ca06614192ab523fa4196649a9861f67ed7337"
	if got := hex.EncodeToString(sum.Sum(nil)); got != want || total != 41 {
		t.Fatalf("%d checkpoint documents hash to %s, want %s", total, got, want)
	}
}

// TestCheckpointHookErrorAborts verifies a hook error stops the run at
// the barrier and surfaces through RunContext.
func TestCheckpointHookErrorAborts(t *testing.T) {
	cfg := resumeBase(scheme.Flooding{}, 1)
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	net.CheckpointEvery = sim.Second
	net.CheckpointHook = func(sim.Time) error { return boom }
	if _, err := net.RunContext(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("RunContext returned %v, want the hook's error", err)
	}
}

// TestResumeSoak checkpoints and restores at every checkpoint window of
// a full mobile repair run — a chain of resumed processes — and
// requires the final summary, the record-arena high-water marks, and
// the event-pool statistics at every window to match the uninterrupted
// run exactly.
func TestResumeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("resume soak skipped in -short mode")
	}
	cfg := Config{
		Scheme: scheme.AdaptiveCounter{}, MapUnits: 3, Hosts: 30, Requests: 10,
		Repair: true, Seed: 9, Warmup: 2 * sim.Second,
	}
	const window = 2 * sim.Second

	// mark is the resource state compared at every checkpoint window. The
	// event-pool comparison is of total allocations (hits+misses): the
	// split between the two depends on when the ladder queue lazily
	// recycles tombstoned events, which is bucket-geometry cache behavior
	// a checkpoint deliberately does not serialize.
	type mark struct {
		arena       int
		alloc       uint64
		prFreeTotal int
		setPool     int
		framePool   int
		helloPool   int
	}
	observe := func(n *Network) mark {
		m := mark{
			arena:     int(n.recBase) + len(n.recs),
			setPool:   len(n.setPool),
			framePool: len(n.framePool),
			helloPool: len(n.helloPool),
		}
		st := n.sched.SnapshotState()
		m.alloc = st.PoolHits + st.PoolMisses
		for _, h := range n.hosts {
			m.prFreeTotal += len(h.prFree)
		}
		return m
	}

	baseline, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wantMarks []mark
	baseline.CheckpointEvery = window
	baseline.CheckpointHook = func(sim.Time) error {
		wantMarks = append(wantMarks, observe(baseline))
		return nil
	}
	want, err := baseline.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(wantMarks) < 5 {
		t.Fatalf("baseline hit only %d checkpoint windows; widen the run", len(wantMarks))
	}

	// The chain: each process runs until its first checkpoint window,
	// writes the checkpoint, and stops; the next process restores from
	// those bytes. The final process reaches the end of the run.
	stop := errors.New("checkpoint taken")
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var gotMarks []mark
	var got metrics.Summary
	for hop := 0; ; hop++ {
		if hop > len(wantMarks)+2 {
			t.Fatalf("resume chain did not terminate after %d hops", hop)
		}
		var buf bytes.Buffer
		net.CheckpointEvery = window
		net.CheckpointHook = func(sim.Time) error {
			gotMarks = append(gotMarks, observe(net))
			if err := net.Checkpoint(&buf); err != nil {
				return err
			}
			return stop
		}
		s, err := net.RunContext(context.Background())
		if errors.Is(err, stop) {
			net, err = RestoreNetwork(bytes.NewReader(buf.Bytes()), cfg)
			if err != nil {
				t.Fatalf("hop %d: %v", hop, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		got = s
		break
	}
	if got != want {
		t.Fatalf("resume chain diverged:\nchained:  %+v\nstraight: %+v", got, want)
	}
	if len(gotMarks) != len(wantMarks) {
		t.Fatalf("chain observed %d checkpoint windows, baseline %d", len(gotMarks), len(wantMarks))
	}
	for i := range wantMarks {
		if gotMarks[i] != wantMarks[i] {
			t.Fatalf("window %d: chained state %+v, baseline %+v", i, gotMarks[i], wantMarks[i])
		}
	}
}
