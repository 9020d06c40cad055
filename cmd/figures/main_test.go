package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/manet"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// TestRunSmoke runs the invocation CI's "CLIs and examples" step uses,
// a small -compare sweep, an undefined flag, the negative counts, a
// replica count that would collide seeds across points, -ci from one
// replica, an unknown figure or compare scheme, a blank -compare, and
// -fig beside -compare; each refusal must exit 2 with one line on
// stderr and without running anything.
func TestRunSmoke(t *testing.T) {
	for _, tc := range []struct {
		name string
		argv []string
		code int
		want string // substring of stdout
	}{
		{"ci invocation", []string{"-fig", "fig6"}, 0, "== fig6:"},
		{"constants", []string{"-fig", "constants"}, 0, "mean additional coverage (1 sender), of pi r^2  0.4135"},
		{"bad flag", []string{"-no-such-flag"}, 2, ""},
		{"negative replicas", []string{"-fig", "fig7", "-replicas", "-1"}, 2, ""},
		{"negative requests", []string{"-fig", "fig7", "-requests", "-1"}, 2, ""},
		{"negative hosts", []string{"-fig", "fig7", "-hosts", "-1"}, 2, ""},
		{"negative workers", []string{"-fig", "fig7", "-workers", "-1"}, 2, ""},
		{"negative trials", []string{"-fig", "fig1", "-trials", "-5"}, 2, ""},
		{"replicas at the seed stride", []string{"-fig", "fig1", "-replicas", "1000"}, 2, ""},
		{"ci from one replica", []string{"-fig", "fig5c", "-replicas", "1", "-ci"}, 2, ""},
		{"unknown figure", []string{"-fig", "nosuch"}, 2, ""},
		{"unknown compare scheme", []string{"-compare", "flooding nosuch"}, 2, ""},
		{"blank compare", []string{"-compare", " "}, 2, ""},
		{"fig with compare", []string{"-fig", "fig7", "-compare", "flooding"}, 2, ""},
		{"compare", []string{"-compare", "flooding ac", "-hosts", "20", "-requests", "4", "-replicas", "1"}, 0, "== compare:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.argv, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.want) {
				t.Fatalf("stdout lacks %q:\n%s", tc.want, stdout.String())
			}
			if tc.code == 2 && tc.name != "bad flag" &&
				(stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1) {
				t.Fatalf("want no stdout and one stderr line, got stdout %q stderr %q",
					stdout.String(), stderr.String())
			}
		})
	}
}

// TestAnalysisSmoke runs the §2.2 analytic figures on few trials, an
// invocation with a flag only the old stormanalysis tool had (refused,
// not silently ignored), and a negative trial count for fig2, which
// must exit 2 with one line on stderr and without running anything.
func TestAnalysisSmoke(t *testing.T) {
	for _, tc := range []struct {
		name string
		argv []string
		code int
		want string // substring of stdout
	}{
		{"fig1", []string{"-fig", "fig1", "-trials", "50"}, 0, "== fig1:"},
		{"fig2", []string{"-fig", "fig2", "-trials", "50"}, 0, "== fig2:"},
		{"bad flag", []string{"-fig", "fig1", "-eac", "2"}, 2, ""},
		{"refused: negative trials", []string{"-fig", "fig2", "-trials", "-5"}, 2, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.argv, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.want) {
				t.Fatalf("stdout lacks %q:\n%s", tc.want, stdout.String())
			}
			if strings.HasPrefix(tc.name, "refused") &&
				(stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1) {
				t.Fatalf("want no stdout and one stderr line, got stdout %q stderr %q",
					stdout.String(), stderr.String())
			}
		})
	}
}

// TestTelemetryReport reads back an export as stormsim -telemetry writes
// it: the channel-load table, closed by the totals line stormsim
// -timeline prints for the same run.
func TestTelemetryReport(t *testing.T) {
	col := obs.New(100 * sim.Millisecond)
	n, err := manet.New(manet.Config{
		Scheme: scheme.Flooding{}, MapUnits: 1, Hosts: 10, Requests: 2, Seed: 1, Telemetry: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	n.Tracer = rec
	n.Run()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Export(f, obs.Meta{Scheme: "flooding"}, col, rec.Events()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-telemetry", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	want := obs.Totals(rec.CountByKind())
	if !strings.Contains(out, "channel load: flooding") || !strings.HasSuffix(out, want) {
		t.Fatalf("stdout lacks the load table or does not end with %q:\n%s", want, out)
	}
}
