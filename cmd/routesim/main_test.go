package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmoke runs the invocation CI's "CLIs and examples" step uses,
// plus an undefined flag, which must exit 2 without running anything;
// the non-positive counts routing.Config would replace with its
// defaults, which must exit 2, and the negative values
// routing.Config.Validate refuses, which must exit 1, each with one
// line on stderr and no results.
func TestRunSmoke(t *testing.T) {
	for _, tc := range []struct {
		name string
		argv []string
		code int
		want string // substring of stdout
	}{
		{"ci invocation", []string{"-discoveries", "3"}, 0, "discoveries             3"},
		{"bad flag", []string{"-no-such-flag"}, 2, ""},
		{"negative map", []string{"-map", "-1"}, 2, ""},
		{"zero map", []string{"-map", "0"}, 2, ""},
		{"zero hosts", []string{"-hosts", "0"}, 2, ""},
		{"negative hosts", []string{"-hosts", "-3"}, 2, ""},
		{"zero discoveries", []string{"-discoveries", "0"}, 2, ""},
		{"negative speed", []string{"-speed", "-5"}, 1, ""},
		{"negative discoveries", []string{"-discoveries", "-1"}, 2, ""},
		{"negative rts", []string{"-rts", "-1"}, 1, ""},
		{"negative data", []string{"-data", "-1"}, 1, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.argv, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.want) {
				t.Fatalf("stdout lacks %q:\n%s", tc.want, stdout.String())
			}
			if (strings.HasPrefix(tc.name, "negative") || strings.HasPrefix(tc.name, "zero")) &&
				(stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1) {
				t.Fatalf("want no stdout and one stderr line, got stdout %q stderr %q",
					stdout.String(), stderr.String())
			}
		})
	}
}
