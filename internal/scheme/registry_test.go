package scheme

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseValidSpecs(t *testing.T) {
	cases := []struct {
		spec string
		want Scheme
	}{
		{"flooding", Flooding{}},
		{"FLOODING", Flooding{}},
		{" flooding ", Flooding{}},
		{"counter", Counter{C: 3}},
		{"counter:C=5", Counter{C: 5}},
		{"counter:c=5", Counter{C: 5}},
		{"distance", Distance{D: 40}},
		{"distance:D=75.5", Distance{D: 75.5}},
		{"location", Location{A: 0.0469}},
		{"location:A=0.1", Location{A: 0.1}},
		{"prob", Probabilistic{P: 0.7}},
		{"probabilistic:P=0.4", Probabilistic{P: 0.4}},
		{"gossip:p=1", Probabilistic{P: 1}},
		{"ac", AdaptiveCounter{}},
		{"adaptive-counter", AdaptiveCounter{}},
		{"nc", NeighborCoverage{}},
		{"neighbor-coverage", NeighborCoverage{}},
		{"al", AdaptiveLocation{}},
		{"al:n1=6,n2=12,max=0.187", AdaptiveLocation{}},
		{"cluster", Cluster{}},
	}
	for _, tc := range cases {
		got, err := Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Parse(%q) = %#v, want %#v", tc.spec, got, tc.want)
		}
	}
}

func TestParseParametricFunctions(t *testing.T) {
	s, err := Parse("ac:n1=3,n2=10")
	if err != nil {
		t.Fatal(err)
	}
	ac, ok := s.(AdaptiveCounter)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if ac.Name() != "AC(3,10)" {
		t.Errorf("name = %q", ac.Name())
	}
	// The built C(n) must match LinearCounterFunc(3, 10) pointwise.
	want := LinearCounterFunc(3, 10)
	for n := 0; n <= 15; n++ {
		if got, w := ac.C(n), want(n); got != w {
			t.Errorf("C(%d) = %d, want %d", n, got, w)
		}
	}

	s, err = Parse("al:n1=2,n2=8,max=0.1")
	if err != nil {
		t.Fatal(err)
	}
	al, ok := s.(AdaptiveLocation)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if al.Name() != "AL(2,8,0.100)" {
		t.Errorf("name = %q", al.Name())
	}
	wantA := LinearLocationFunc(2, 8, 0.1)
	for n := 0; n <= 12; n++ {
		if got, w := al.A(n), wantA(n); got != w {
			t.Errorf("A(%d) = %g, want %g", n, got, w)
		}
	}
}

func TestParseClusterInner(t *testing.T) {
	s, err := Parse("cluster:inner=counter:C=2")
	if err != nil {
		t.Fatal(err)
	}
	cl, ok := s.(Cluster)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if !reflect.DeepEqual(cl.Inner, Counter{C: 2}) {
		t.Errorf("inner = %#v", cl.Inner)
	}
	if _, err := Parse("cluster:inner=bogus"); err == nil {
		t.Error("accepted bogus inner spec")
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"", "empty"},
		{"bogus", "unknown scheme"},
		{"counter:C=zero", "not an integer"},
		{"counter:C=0", "at least 1"},
		{"counter:X=3", "unknown parameter"},
		{"counter:C=3,C=4", "duplicate"},
		{"counter:C", "malformed"},
		{"distance:D=-5", "non-negative"},
		{"location:A=2", "outside"},
		{"prob:P=1.5", "outside"},
		{"ac:n1=3", "together"},
		{"ac:n1=5,n2=2", "n1 < n2"},
		{"al:max=0", "outside"},
		{"location:A=NaN", "not finite"},
		{"prob:P=NaN", "not finite"},
		{"distance:D=Inf", "not finite"},
		{"al:max=NaN", "not finite"},
		{"flooding:C=3", "unknown parameter"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) err = %v, want containing %q", tc.spec, err, tc.want)
		}
	}
}

func TestNamesAndUsageCoverRegistry(t *testing.T) {
	names := Names()
	if len(names) != len(registry) {
		t.Fatalf("Names() has %d entries for %d registry entries", len(names), len(registry))
	}
	usage := Usage()
	for _, n := range names {
		// Every listed name must parse with defaults and appear in the help.
		if _, err := Parse(n); err != nil {
			t.Errorf("Parse(%q) with defaults: %v", n, err)
		}
		if !strings.Contains(usage, n) {
			t.Errorf("Usage() does not mention %q", n)
		}
	}
}
