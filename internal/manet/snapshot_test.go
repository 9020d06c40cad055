package manet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/neighbor"
	"repro/internal/obs"
	"repro/internal/packet"
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
func captureCheckpoints(t testing.TB, cfg Config) ([][]byte, metrics.Summary) {
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
	audited.Audit = obs.NewAuditor()
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
// of writing a document that cannot resume, and a run with a checkpoint
// hook attached must refuse before it executes a single event.
func TestCheckpointUnsupportedConfigs(t *testing.T) {
	cases := []struct {
		name  string
		apply func(*Config)
	}{
		{"telemetry", func(c *Config) { c.Telemetry = obs.New(sim.Second) }},
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
			net.CheckpointEvery = sim.Second
			net.CheckpointHook = func(sim.Time) error {
				t.Fatal("checkpoint hook ran on an unsupported configuration")
				return nil
			}
			if _, err := net.RunContext(context.Background()); err == nil {
				t.Fatal("RunContext accepted a checkpoint hook on an unsupported configuration")
			}
			if got := net.Scheduler().Executed(); got != 0 {
				t.Fatalf("refused run executed %d events, want 0", got)
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

	// A scheme's name rounds its parameters (P=%.2f, AL(%d,%d,%.3f)), so
	// these pairs print the same label and still decide differently. The
	// checkpoint resumes under its own spec and is refused under the other.
	for _, tc := range []struct{ name, from, to string }{
		{"prob-below-label-precision", "prob:P=0.701", "prob:P=0.704"},
		{"al-below-label-precision", "al:n1=6,n2=12,max=0.1871", "al:n1=6,n2=12,max=0.1874"},
		{"cluster-inner-below-label-precision", "cluster:inner=prob:P=0.701", "cluster:inner=prob:P=0.704"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			from, err := scheme.Parse(tc.from)
			if err != nil {
				t.Fatal(err)
			}
			to, err := scheme.Parse(tc.to)
			if err != nil {
				t.Fatal(err)
			}
			if from.Name() != to.Name() {
				t.Fatalf("names differ (%q, %q): the row no longer tests rounding", from.Name(), to.Name())
			}
			cfg := resumeBase(from, 2)
			bufs, want := captureCheckpoints(t, cfg)
			restored, err := RestoreNetwork(bytes.NewReader(bufs[1]), cfg)
			if err != nil {
				t.Fatalf("same-spec resume refused: %v", err)
			}
			if got := restored.Run(); got != want {
				t.Fatalf("same-spec resume diverges:\nresumed:  %+v\nstraight: %+v", got, want)
			}
			bad := cfg
			bad.Scheme = to
			_, err = RestoreNetwork(bytes.NewReader(bufs[1]), bad)
			if err == nil || !strings.Contains(err.Error(), "different configuration") {
				t.Fatalf("RestoreNetwork under %s = %v, want a different-configuration refusal", tc.to, err)
			}
		})
	}
}

// restoreForged decodes doc, applies forge, and restores the result
// into cfg. The forgery is first sent through the codec once more: a
// forged document is well-formed for the codec, so restore is where it
// has to be refused.
func restoreForged(t *testing.T, cfg Config, doc []byte, forge func(*snapshot.Checkpoint)) error {
	t.Helper()
	ck, err := snapshot.Decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	forge(ck)
	if ck, err = snapshot.Decode(snapshot.Append(nil, ck)); err != nil {
		t.Fatal(err)
	}
	n, err := RestoreCheckpoint(ck, cfg)
	if err == nil {
		n.Close()
	}
	return err
}

// TestRestoreForgedCountersAllocateNothing forges run counters of a
// middle checkpoint to 2⁴⁰, one at a time and all together; a MAC
// counter, stored in 32 bits, to 2³²−1, the most it holds
// (TestRestoreForgedContention refuses 2³²). A counter only counts:
// restore sizes nothing by it, so decoding, re-encoding and restoring
// the document stays within the bound that refusing a forged dedup list
// keeps.
func TestRestoreForgedCountersAllocateNothing(t *testing.T) {
	cfg := resumeBase(scheme.Counter{C: 3}, 2)
	bufs, _ := captureCheckpoints(t, cfg)
	const big = 1 << 40
	type forgery struct {
		name  string
		forge func(*snapshot.Checkpoint)
	}
	counters := []forgery{
		{"Hosts.MAC.Stats.Enqueued", func(ck *snapshot.Checkpoint) { ck.Hosts[0].MAC.Stats.Enqueued = math.MaxUint32 }},
		{"Channel.Stats.Transmissions", func(ck *snapshot.Checkpoint) { ck.Channel.Stats.Transmissions = big }},
		{"Net.HelloSent", func(ck *snapshot.Checkpoint) { ck.Net.HelloSent = big }},
		{"Sched.Executed", func(ck *snapshot.Checkpoint) { ck.Sched.Executed = big }},
	}
	all := forgery{"all", func(ck *snapshot.Checkpoint) {
		for _, c := range counters {
			c.forge(ck)
		}
	}}
	for _, tc := range append(counters, all) {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := restoreForged(t, cfg, bufs[1], tc.forge)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("restore refused a document whose counters alone were forged: %v", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
				t.Errorf("restore allocated %d MB", alloc>>20)
			}
		})
	}
}

// TestRestoreForgedContention forges MAC contention state no run
// reaches, and MAC counters outside the 32 bits that hold them. Restore
// has to refuse each: a contention window below zero used to restore
// and then panic the run at its first backoff draw, and a counter
// would be truncated silently.
func TestRestoreForgedContention(t *testing.T) {
	cfg := resumeBase(scheme.Counter{C: 3}, 2)
	bufs, _ := captureCheckpoints(t, cfg)
	forgeries := []struct {
		name  string
		forge func(*mac.MACState)
		want  string
	}{
		{"CW=-1", func(st *mac.MACState) { st.CW = -1 }, "contention window"},
		{"CW=32", func(st *mac.MACState) { st.CW = 32 }, "contention window"},
		{"CW=2047", func(st *mac.MACState) { st.CW = 2047 }, "contention window"},
		{"BackoffRemaining=-2", func(st *mac.MACState) { st.BackoffRemaining = -2 }, "residual backoff"},
		{"BackoffRemaining=CW+1", func(st *mac.MACState) { st.BackoffRemaining = st.CW + 1 }, "residual backoff"},
		{"TxEventSlots=CW+1", func(st *mac.MACState) { st.HasTxEvent, st.TxEventSlots = true, st.CW+1 }, "attempt slot count"},
		{"Retries=-1", func(st *mac.MACState) { st.Retries = -1 }, "retry count"},
		{"Retries=RetryLimit+1", func(st *mac.MACState) { st.Retries = mac.RetryLimit + 1 }, "retry count"},
		{"Stats.Enqueued=2^32", func(st *mac.MACState) { st.Stats.Enqueued = math.MaxUint32 + 1 }, "Stats.Enqueued"},
		{"Stats.Sent=-1", func(st *mac.MACState) { st.Stats.Sent = -1 }, "Stats.Sent"},
		{"Stats.Cancelled=2^32", func(st *mac.MACState) { st.Stats.Cancelled = math.MaxUint32 + 1 }, "Stats.Cancelled"},
		{"Stats.Stalls=-1", func(st *mac.MACState) { st.Stats.Stalls = -1 }, "Stats.Stalls"},
		{"Stats.AcksSent=2^32", func(st *mac.MACState) { st.Stats.AcksSent = math.MaxUint32 + 1 }, "Stats.AcksSent"},
		{"Stats.Retries=-1", func(st *mac.MACState) { st.Stats.Retries = -1 }, "Stats.Retries"},
		{"Stats.Dropped=2^32", func(st *mac.MACState) { st.Stats.Dropped = math.MaxUint32 + 1 }, "Stats.Dropped"},
	}
	for _, tc := range forgeries {
		t.Run(tc.name, func(t *testing.T) {
			err := restoreForged(t, cfg, bufs[1], func(ck *snapshot.Checkpoint) { tc.forge(&ck.Hosts[3].MAC) })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore returned %v, want an error naming the %s", err, tc.want)
			}
		})
	}
}

// FuzzRestoreCheckpoint sets one scalar of a small world's middle
// checkpoint — a run counter or a piece of MAC contention state — to a
// fuzzed value, on a fuzzed host. Restore either refuses the document
// or the resumed run finishes without a panic. The seeds are the
// forgeries of the tests above and each field's int64 extremes.
func FuzzRestoreCheckpoint(f *testing.F) {
	cfg := resumeBase(scheme.Counter{C: 3}, 2)
	bufs, _ := captureCheckpoints(f, cfg)

	fields := []func(ck *snapshot.Checkpoint, h int, v int64){
		func(ck *snapshot.Checkpoint, h int, v int64) { ck.Hosts[h].MAC.Stats.Enqueued = int(v) },
		func(ck *snapshot.Checkpoint, _ int, v int64) { ck.Channel.Stats.Transmissions = int(v) },
		func(ck *snapshot.Checkpoint, _ int, v int64) { ck.Net.HelloSent = v },
		func(ck *snapshot.Checkpoint, _ int, v int64) { ck.Sched.Executed = uint64(v) },
		func(ck *snapshot.Checkpoint, h int, v int64) { ck.Hosts[h].MAC.CW = int(v) },
		func(ck *snapshot.Checkpoint, h int, v int64) { ck.Hosts[h].MAC.BackoffRemaining = int(v) },
		func(ck *snapshot.Checkpoint, h int, v int64) { ck.Hosts[h].MAC.TxEventSlots = int(v) },
		func(ck *snapshot.Checkpoint, h int, v int64) { ck.Hosts[h].MAC.Retries = int(v) },
	}
	const contention = 4 // fields from here on are MAC contention state
	for field := range fields {
		for _, v := range []int64{-1, 0, 1, 1 << 20, 1 << 26, 1 << 40, math.MaxInt64, math.MinInt64} {
			f.Add(uint8(field), uint8(3), v)
		}
	}
	for _, v := range []int64{-2, 30, 32, 63, 1023, 2047, mac.RetryLimit + 1} {
		for field := contention; field < len(fields); field++ {
			f.Add(uint8(field), uint8(0), v)
		}
	}
	f.Fuzz(func(t *testing.T, field, host uint8, v int64) {
		k := int(field) % len(fields)
		ck, err := snapshot.Decode(bufs[1])
		if err != nil {
			t.Fatal(err)
		}
		fields[k](ck, int(host)%len(ck.Hosts), v)
		n, err := RestoreCheckpoint(ck, cfg)
		if err != nil {
			return
		}
		defer n.Close()
		n.Run()
	})
}

// TestRestoreHelloStateIntoHelloOff forges HELLO state into a HELLO-off
// document. A HELLO-off world builds no per-host HELLO state, so
// restore has to refuse neighbor entries, change-log times, beacons,
// HELLO timers and repair advertisements instead of handing them to a
// record that is not there.
func TestRestoreHelloStateIntoHelloOff(t *testing.T) {
	cfg := resumeBase(scheme.Counter{C: 3}, 2)
	if cfg.WithDefaults().HelloMode != HelloOff {
		t.Fatal("the forged world must be HELLO-off")
	}
	bufs, _ := captureCheckpoints(t, cfg)
	forgeries := []struct {
		name  string
		forge func(*snapshot.Checkpoint)
		want  string
	}{
		{"Table.Entries", func(ck *snapshot.Checkpoint) {
			ck.Hosts[0].Table.Entries = []neighbor.EntryState{{ID: 1, LastHeard: 1, Interval: sim.Second, Deadline: sim.Time(0).Add(1000 * sim.Second), ExpirySeq: 1}}
		}, "neighbor knowledge"},
		{"Table.Changes", func(ck *snapshot.Checkpoint) { ck.Hosts[0].Table.Changes = []sim.Time{1} }, "neighbor knowledge"},
		{"HasHelloTimer", func(ck *snapshot.Checkpoint) {
			ck.Hosts[0].HasHelloTimer, ck.Hosts[0].HelloAt = true, ck.Sched.Now
		}, "HELLO timer"},
		{"Frames", func(ck *snapshot.Checkpoint) {
			ck.Frames = append(ck.Frames, snapshot.Frame{Kind: uint8(packet.KindHello)})
		}, "HELLO frame"},
		{"Recent", func(ck *snapshot.Checkpoint) {
			ck.Hosts[0].Recent = []snapshot.RecentBroadcast{{ID: heardID(ck), Heard: ck.Sched.Now}}
		}, "repair advertisement"},
		{"Nacked", func(ck *snapshot.Checkpoint) { ck.Hosts[0].Nacked = []packet.BroadcastID{heardID(ck)} }, "repair advertisement"},
	}
	for _, tc := range forgeries {
		t.Run(tc.name, func(t *testing.T) {
			err := restoreForged(t, cfg, bufs[1], tc.forge)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore returned %v, want an error naming the %s", err, tc.want)
			}
		})
	}
}

// heardID returns a broadcast id the document's first host has seen, so
// a forgery carrying it passes the broadcast-id checks.
func heardID(ck *snapshot.Checkpoint) packet.BroadcastID {
	if d := ck.Hosts[0].Dedup; len(d) > 0 {
		return d[0]
	}
	panic("host 0 has seen no broadcast")
}

// pendingCheckpoint runs cfg, checkpointing every 50 ms, and returns the
// first document that holds an open rebroadcast decision.
func pendingCheckpoint(t *testing.T, cfg Config) []byte {
	t.Helper()
	n := mustNew(t, cfg)
	defer n.Close()
	var doc []byte
	n.CheckpointEvery = 50 * sim.Millisecond
	n.CheckpointHook = func(sim.Time) error {
		if doc != nil {
			return nil
		}
		var buf bytes.Buffer
		if err := n.Checkpoint(&buf); err != nil {
			return err
		}
		for _, h := range n.hosts {
			if h.pendingCount() > 0 {
				doc = buf.Bytes()
				break
			}
		}
		return nil
	}
	if _, err := n.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if doc == nil {
		t.Fatal("no checkpoint holds an open decision")
	}
	return doc
}

// firstJudge returns the judge of the document's first open decision.
func firstJudge(ck *snapshot.Checkpoint) *scheme.JudgeState {
	for i := range ck.Hosts {
		if p := ck.Hosts[i].Pending; len(p) > 0 {
			return &p[0].Judge
		}
	}
	panic("no open decision in the document")
}

// TestRestoreRejectsForgedJudge forges the first open decision's judge.
// Restore has to refuse each forgery within the allocation bound of
// TestRestoreForgedCountersAllocateNothing: a pending id of 2³⁰ once
// grew the pending set to 128 MB and restored, id −5 set another host's
// bit, and a coverage judge in a HELLO-off world restored and panicked
// the resumed run at its first duplicate.
func TestRestoreRejectsForgedJudge(t *testing.T) {
	nc := resumeBase(scheme.NeighborCoverage{}, 2)
	nc.Requests = 40
	counter := resumeBase(scheme.Counter{C: 3}, 2)
	counter.Requests = 40
	al := resumeBase(scheme.AdaptiveLocation{}, 2)
	al.Requests = 40
	docs := map[string][]byte{}
	for name, cfg := range map[string]Config{"nc": nc, "counter": counter, "al": al} {
		docs[name] = pendingCheckpoint(t, cfg)
	}
	for _, tc := range []struct {
		name, world string
		cfg         Config
		forge       func(*scheme.JudgeState)
		want        string // "" for a document restore accepts
	}{
		{"unforged NC", "nc", nc, func(*scheme.JudgeState) {}, ""},
		{"unforged counter", "counter", counter, func(*scheme.JudgeState) {}, ""},
		{"unforged AL", "al", al, func(*scheme.JudgeState) {}, ""},
		{"pending id 2^30", "nc", nc, func(st *scheme.JudgeState) { st.Pending = append(st.Pending, 1<<30) }, "outside the population"},
		{"pending id -5", "nc", nc, func(st *scheme.JudgeState) { st.Pending = append([]packet.NodeID{-5}, st.Pending...) }, "outside the population"},
		{"coverage judge without HELLO", "counter", counter, func(st *scheme.JudgeState) {
			*st = scheme.JudgeState{Kind: scheme.JudgeCoverage, Pending: []packet.NodeID{1, 2}}
		}, "HELLO-off"},
		{"own position NaN", "al", al, func(st *scheme.JudgeState) { st.Own.X = math.NaN() }, "non-finite"},
		{"coverage threshold +Inf", "al", al, func(st *scheme.JudgeState) { st.AThreshold = math.Inf(1) }, "non-finite"},
		{"sender -Inf", "al", al, func(st *scheme.JudgeState) { st.Senders[0].Y = math.Inf(-1) }, "non-finite"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := restoreForged(t, tc.cfg, docs[tc.world], func(ck *snapshot.Checkpoint) { tc.forge(firstJudge(ck)) })
			runtime.ReadMemStats(&after)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("restore refused an unforged document: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("restore returned %v, want an error naming %q", err, tc.want)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
				t.Errorf("restore allocated %d MB", alloc>>20)
			}
		})
	}
}

// TestCheckpointDigestPinned pins the full v2 digest of one fixed
// config. RestoreNetwork refuses on any
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
	const want = `v2 hosts=30 map=3 unit=500 radius=500 speed=30 static=false mobility=0 placement=[] ` +
		`scheme="C=3" requests=8 arrival=2000000 hello=0 hi=1000000 expiry=2 slots=31 warmup=0 drain=2000000 ` +
		`engine=1 shards=0 nocoll=false idealhello=true loss=0.1 capture=0 repair=false retain=false seed=2`
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
// in the bytes: the literal was first recorded at a6c75fa, before any
// of that state existed. It was re-recorded when the codec moved to v2,
// which dropped the pool depths and pool counters and the frozen
// digest slots: each of the 41 documents decoded equal to its v1
// predecessor once those fields were dropped, and is 1,941 bytes
// shorter.
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

	const want = "8d65be17c1ce09ff9797ead6a175da9923086761c80c82b3db5a4291fbe26864"
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
// requires the final summary and the record-arena high-water mark at
// every window to match the uninterrupted run exactly.
func TestResumeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("resume soak skipped in -short mode")
	}
	cfg := Config{
		Scheme: scheme.AdaptiveCounter{}, MapUnits: 3, Hosts: 30, Requests: 10,
		Repair: true, Seed: 9, Warmup: 2 * sim.Second,
	}
	const window = 2 * sim.Second

	// The record arena's high-water mark is compared at every checkpoint
	// window. Pools are caches a restored world refills on its own, so
	// they are not compared.
	arenaMark := func(n *Network) int { return int(n.recBase) + len(n.recs) }

	baseline, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wantMarks []int
	baseline.CheckpointEvery = window
	baseline.CheckpointHook = func(sim.Time) error {
		wantMarks = append(wantMarks, arenaMark(baseline))
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
	var gotMarks []int
	var got metrics.Summary
	for hop := 0; ; hop++ {
		if hop > len(wantMarks)+2 {
			t.Fatalf("resume chain did not terminate after %d hops", hop)
		}
		var buf bytes.Buffer
		net.CheckpointEvery = window
		net.CheckpointHook = func(sim.Time) error {
			gotMarks = append(gotMarks, arenaMark(net))
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
			t.Fatalf("window %d: chained arena mark %d, baseline %d", i, gotMarks[i], wantMarks[i])
		}
	}
}
