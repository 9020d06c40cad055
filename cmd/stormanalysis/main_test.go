package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmoke runs the invocation CI's "CLIs and examples" step uses,
// plus an undefined flag and the counts that make no table, each of
// which must exit 2 with one line on stderr and without running
// anything.
func TestRunSmoke(t *testing.T) {
	for _, tc := range []struct {
		name string
		argv []string
		code int
		want string // substring of stdout
	}{
		{"ci invocation", []string{"-constants"}, 0, "analytic constants"},
		{"bad flag", []string{"-no-such-flag"}, 2, ""},
		{"refused: negative trials", []string{"-eac", "2", "-trials", "-5"}, 2, ""},
		{"refused: zero trials", []string{"-cf", "2", "-trials", "0"}, 2, ""},
		{"refused: negative eac", []string{"-eac", "-3"}, 2, ""},
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
