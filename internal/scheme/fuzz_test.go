package scheme

import (
	"strings"
	"testing"
)

// FuzzSchemeParse throws arbitrary specs at the registry parser. Parse
// must never panic; when it accepts a spec the scheme must be usable
// (non-nil with a non-empty label) and parsing must be deterministic —
// the same spec accepted twice yields the same label.
func FuzzSchemeParse(f *testing.F) {
	for _, seed := range []string{
		"", "flooding", "counter:C=3", "counter:C=notanumber", "counter:C=0",
		"prob:P=0.7", "prob:P=2", "distance:D=40", "location:A=0.0469",
		"ac", "ac:n1=3,n2=10", "ac:n1=3", "al:n1=6,n2=12,max=0.187",
		"nc", "neighbor-coverage", "cluster", "cluster:inner=counter:C=2",
		"cluster:inner=cluster", "FLOODING", " counter :c=4", "counter:C=3,C=4",
		"counter:junk=1", "a:b=c,d=e,f=g", "::::", "counter:",
		"location:A=NaN", "prob:P=+Inf", "al:max=NaN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if len(spec) > 1024 {
			return // deep cluster:inner=cluster:... nesting is legal but unbounded
		}
		s, err := Parse(spec)
		if err != nil {
			if s != nil {
				t.Fatalf("Parse(%q) returned a scheme alongside error %v", spec, err)
			}
			return
		}
		if s == nil {
			t.Fatalf("Parse(%q) returned nil scheme without error", spec)
		}
		name := s.Name()
		if strings.TrimSpace(name) == "" {
			t.Fatalf("Parse(%q): scheme has empty label", spec)
		}
		if strings.Contains(name, "NaN") || strings.Contains(name, "Inf") {
			t.Fatalf("Parse(%q) accepted a non-finite parameter: %q", spec, name)
		}
		again, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q) accepted once, rejected twice: %v", spec, err)
		}
		if again.Name() != name {
			t.Fatalf("Parse(%q) nondeterministic: %q vs %q", spec, name, again.Name())
		}
	})
}
