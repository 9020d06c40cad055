package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmoke runs the invocation CI's "CLIs and examples" step uses,
// plus an undefined flag, which must exit 2 without running anything.
func TestRunSmoke(t *testing.T) {
	for _, tc := range []struct {
		name string
		argv []string
		code int
		want string // substring of stdout
	}{
		{"ci invocation", []string{"-fig", "fig6"}, 0, "== fig6:"},
		{"bad flag", []string{"-no-such-flag"}, 2, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.argv, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.want) {
				t.Fatalf("stdout lacks %q:\n%s", tc.want, stdout.String())
			}
		})
	}
}
