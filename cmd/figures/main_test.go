package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmoke runs the invocation CI's "CLIs and examples" step uses,
// a small -compare sweep, an undefined flag, the negative counts, a
// replica count that would collide seeds across points, -ci from one
// replica, and an unknown figure or compare scheme; each refusal must
// exit 2 with one line on stderr and without running anything.
func TestRunSmoke(t *testing.T) {
	for _, tc := range []struct {
		name string
		argv []string
		code int
		want string // substring of stdout
	}{
		{"ci invocation", []string{"-fig", "fig6"}, 0, "== fig6:"},
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
