package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

// base returns the flags of a small deterministic run, with any extra
// flags appended.
func base(extra ...string) []string {
	return append([]string{
		"-scheme", "ac", "-map", "1", "-hosts", "20", "-requests", "5", "-seed", "3",
	}, extra...)
}

// runTool drives the tool and returns (exit code, stdout, stderr).
func runTool(t *testing.T, argv []string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(argv, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRunSmoke checks the report names the configuration that ran: a
// zero -speed means the paper's rule of 10 km/h per map unit, and the
// map line must say so instead of echoing the flag.
func TestRunSmoke(t *testing.T) {
	for _, tc := range []struct {
		name string
		argv []string
		want string // substring of stdout
	}{
		{"flags as given", base(), "map               1x1 units (20 hosts, max 10 km/h)"},
		{"zero speed means the paper rule",
			[]string{"-scheme", "ac", "-hosts", "20", "-map", "3", "-speed", "0", "-requests", "2", "-seed", "3"},
			"map               3x3 units (20 hosts, max 30 km/h)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errs := runTool(t, tc.argv)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errs)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("stdout lacks %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestTimelineSmoke runs the -timeline invocation CI's "CLIs and
// examples" step uses, plus an undefined flag, which must exit 2
// without running anything.
func TestTimelineSmoke(t *testing.T) {
	for _, tc := range []struct {
		name string
		argv []string
		code int
		want string // substring of stdout
	}{
		{"ci invocation", []string{"-timeline", "-map", "1", "-hosts", "20", "-requests", "1"}, 0,
			"totals: 1 originate, 19 deliver"},
		{"bad flag", []string{"-timeline", "-no-such-flag"}, 2, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errs := runTool(t, tc.argv)
			if code != tc.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.code, errs)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("stdout lacks %q:\n%s", tc.want, out)
			}
		})
	}
}

func TestCheckpointResumeMatchesStraightRun(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "run.ck")

	code, plain, errs := runTool(t, base())
	if code != 0 {
		t.Fatalf("straight run exited %d: %s", code, errs)
	}
	if !strings.Contains(plain, "scheme            AC") {
		t.Fatalf("unexpected output:\n%s", plain)
	}

	code, hooked, errs := runTool(t, base("-checkpoint", ck, "-checkpoint-every", "6000"))
	if code != 0 {
		t.Fatalf("checkpointing run exited %d: %s", code, errs)
	}
	if hooked != plain {
		t.Fatalf("checkpointing changed the run:\nhooked:\n%s\nplain:\n%s", hooked, plain)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}

	code, resumed, errs := runTool(t, base("-resume", ck))
	if code != 0 {
		t.Fatalf("resumed run exited %d: %s", code, errs)
	}
	if resumed != plain {
		t.Fatalf("resumed run diverged:\nresumed:\n%s\nplain:\n%s", resumed, plain)
	}

	code, forked, errs := runTool(t, base("-resume", ck, "-fork-seed", "99"))
	if code != 0 {
		t.Fatalf("forked run exited %d: %s", code, errs)
	}
	if forked == plain {
		t.Fatal("fork-seed run reproduced the original metrics")
	}
}

func TestResumeBadPath(t *testing.T) {
	code, _, errs := runTool(t, base("-resume", filepath.Join(t.TempDir(), "missing.ck")))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errs, "missing.ck") {
		t.Fatalf("stderr does not name the file:\n%s", errs)
	}
}

func TestResumeVersionMismatch(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "run.ck")
	if code, _, errs := runTool(t, base("-checkpoint", ck, "-checkpoint-every", "6000")); code != 0 {
		t.Fatalf("checkpointing run failed: %s", errs)
	}
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	data[8] = 0x7f // version byte follows the 8-byte magic
	if err := os.WriteFile(ck, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errs := runTool(t, base("-resume", ck))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errs, "version") {
		t.Fatalf("stderr does not mention the version:\n%s", errs)
	}
}

// TestResumeRefusesV1 resumes from the header of a v1 document: the
// codec reads v2 only, so the tool has to exit 1 naming the version
// instead of misreading the fields v1 carried.
func TestResumeRefusesV1(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "v1.ck")
	if err := os.WriteFile(ck, append([]byte(snapshot.Magic), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errs := runTool(t, base("-resume", ck))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errs, "version 1") {
		t.Fatalf("stderr does not name version 1:\n%s", errs)
	}
}

// TestRejectsNonFinite: a NaN speed or scheme parameter passes every
// range check a comparison makes, and used to run a world that moved
// nothing. The tool has to exit non-zero and name the value.
func TestRejectsNonFinite(t *testing.T) {
	for _, argv := range [][]string{
		base("-speed", "NaN"),
		base("-scheme", "prob:P=NaN"),
	} {
		code, _, errs := runTool(t, argv)
		if code == 0 || !strings.Contains(errs, "NaN") {
			t.Errorf("%v: exit %d, stderr %q; want a non-zero exit naming NaN", argv, code, errs)
		}
	}
}

func TestResumeContradictoryConfig(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ name, scheme, flag, value string }{
		{"seed", "ac", "-seed", "77"},
		{"scheme", "ac", "-scheme", "flooding"},
		{"hosts", "ac", "-hosts", "21"},
		// Same label, different decisions: the name rounds P to 0.70 and
		// max to 0.187, the digest must not.
		{"prob below label precision", "prob:P=0.701", "-scheme", "prob:P=0.704"},
		{"al below label precision", "al:n1=6,n2=12,max=0.1871", "-scheme", "al:n1=6,n2=12,max=0.1874"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ck := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+".ck")
			argv := []string{"-scheme", tc.scheme, "-map", "1", "-hosts", "20", "-requests", "5", "-seed", "3"}
			if code, _, errs := runTool(t, append(argv, "-checkpoint", ck, "-checkpoint-every", "2000")); code != 0 {
				t.Fatalf("checkpointing run failed: %s", errs)
			}
			// Later flags win, so the contradiction overrides the base value.
			code, _, errs := runTool(t, append(argv, "-resume", ck, tc.flag, tc.value))
			if code != 1 {
				t.Fatalf("exit %d, want 1 (stderr: %s)", code, errs)
			}
			if !strings.Contains(errs, "different configuration") {
				t.Fatalf("stderr does not flag the configuration:\n%s", errs)
			}
		})
	}
}

func TestFlagContradictions(t *testing.T) {
	cases := [][]string{
		base("-checkpoint", "x.ck"),       // -checkpoint without cadence
		base("-checkpoint-every", "1000"), // cadence without a file
		base("-checkpoint", "x.ck", "-checkpoint-every", "-5"),
		base("-fork-seed", "9"),               // fork without -resume
		base("-scheme", "counter", "-C", "5"), // parameters go in the spec: counter:C=5
		base("-telemetry-tick", "-5"),
		base("-telemetry-tick", "0"),
		base("-timeline", "-checkpoint", "x.ck", "-checkpoint-every", "1000"),
		base("-timeline", "-resume", "x.ck"), // the trace would lack the pre-checkpoint events
	}
	for _, argv := range cases {
		if code, _, _ := runTool(t, argv); code != 2 {
			t.Fatalf("%v: exit %d, want usage error 2", argv, code)
		}
	}
	// manet.Config reads a zero count as its default, so the tool has to
	// refuse one instead of running another world.
	for _, argv := range [][]string{
		base("-hosts", "0"),
		base("-map", "0"),
		base("-map", "-1"),
		base("-requests", "0"),
		base("-hello-interval", "0"),
	} {
		code, out, errs := runTool(t, argv)
		if code != 2 || out != "" || strings.Count(errs, "\n") != 1 {
			t.Fatalf("%v: exit %d, stdout %q, stderr %q; want 2, no stdout and one stderr line", argv, code, out, errs)
		}
	}
}

// TestSchemesPrintsThresholds: -schemes closes with the -scheme spec's
// threshold at n = 0..15 neighbors, the lines the paper's C(n) and A(n)
// curves are read from.
func TestSchemesPrintsThresholds(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"ac", `AC counter threshold C(n):
  n=0    C=2
  n=1    C=2
  n=2    C=3
  n=3    C=4
  n=4    C=5
  n=5    C=5
  n=6    C=4
  n=7    C=4
  n=8    C=4
  n=9    C=3
  n=10   C=3
  n=11   C=2
  n=12   C=2
  n=13   C=2
  n=14   C=2
  n=15   C=2
`},
		{"al:n1=6,n2=12", `AL coverage threshold A(n), fraction of pi*r^2:
  n=0    A=0.0000
  n=1    A=0.0000
  n=2    A=0.0000
  n=3    A=0.0000
  n=4    A=0.0000
  n=5    A=0.0000
  n=6    A=0.0000
  n=7    A=0.0312
  n=8    A=0.0623
  n=9    A=0.0935
  n=10   A=0.1247
  n=11   A=0.1558
  n=12   A=0.1870
  n=13   A=0.1870
  n=14   A=0.1870
  n=15   A=0.1870
`},
		{"counter:C=3", "C=3: fixed counter threshold C=3 for all n\n"},
	} {
		code, out, errs := runTool(t, []string{"-scheme", tc.spec, "-schemes"})
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", tc.spec, code, errs)
		}
		syntax, funcs, ok := strings.Cut(out, "\n\n")
		if !ok || !strings.HasPrefix(syntax, "scheme specs:\n") || funcs != tc.want {
			t.Errorf("-scheme %s -schemes printed\n%s\nwant the syntax, a blank line and\n%s", tc.spec, out, tc.want)
		}
	}
	if code, out, _ := runTool(t, []string{"-scheme", "nosuch", "-schemes"}); code != 2 || out != "" {
		t.Errorf("unknown spec: exit %d, stdout %q; want 2 and nothing printed", code, out)
	}
}

// TestUncheckpointableRefusedBeforeRun: telemetry cannot be
// checkpointed, so a checkpointing run with it attached fails before
// simulating anything, and is not reported as cancelled.
func TestUncheckpointableRefusedBeforeRun(t *testing.T) {
	dir := t.TempDir()
	code, out, errs := runTool(t, base(
		"-telemetry", filepath.Join(dir, "t.jsonl"),
		"-checkpoint", filepath.Join(dir, "c.ck"), "-checkpoint-every", "1000"))
	if code != 1 || out != "" {
		t.Fatalf("exit %d, stdout %q; want 1 and no report", code, out)
	}
	if !strings.Contains(errs, "telemetry") || strings.Contains(errs, "cancelled") {
		t.Fatalf("stderr = %q; want the telemetry refusal, not a cancellation", errs)
	}
}

// TestCheckpointCadenceNeverReached: a run that ends before its first
// -checkpoint-every leaves no file for a later -resume, so it prints its
// report and then fails with one line saying so.
func TestCheckpointCadenceNeverReached(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "f")
	code, out, errs := runTool(t, []string{"-scheme", "prob:P=0.701", "-map", "1", "-hosts", "20",
		"-requests", "5", "-seed", "3", "-checkpoint", ck, "-checkpoint-every", "6000"})
	if code != 1 || !strings.Contains(out, "simulated time            6.0 s") {
		t.Fatalf("exit %d, stdout:\n%s\nwant 1 after the full report", code, out)
	}
	want := "stormsim: no checkpoint written: the run ended at 6.0 s, before the first -checkpoint-every 6000 ms\n"
	if errs != want {
		t.Fatalf("stderr = %q, want %q", errs, want)
	}
	if _, err := os.Stat(ck); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file: %v, want none", err)
	}
}

// An early exit must not leave the process-wide CPU profiler running:
// after each one, a successful profiled run in the same process has to
// start its own profile and flush it.
func TestEarlyExitStopsProfile(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		argv []string
		code int
	}{
		{"bad engine", base("-engine", "bogus"), 2},
		{"bad hello", base("-hello", "bogus"), 2},
		{"resume missing file", base("-resume", filepath.Join(dir, "missing.ck")), 1},
		{"shards not a power of two", base("-shards", "3"), 1},
		{"negative speed", base("-speed", "-5"), 1},
		{"negative hello interval", base("-hello-interval", "-5"), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			argv := append(tc.argv, "-cpuprofile", filepath.Join(dir, "early.prof"))
			code, _, errs := runTool(t, argv)
			if code != tc.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.code, errs)
			}
			if strings.Count(errs, "\n") != 1 {
				t.Fatalf("want one stderr line and no stack, got:\n%s", errs)
			}
			prof := filepath.Join(dir, "ok.prof")
			if code, _, errs := runTool(t, base("-cpuprofile", prof)); code != 0 {
				t.Fatalf("profiled run after the early exit exited %d: %s", code, errs)
			}
			if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
				t.Fatalf("profile missing or empty: %v", err)
			}
		})
	}
}
