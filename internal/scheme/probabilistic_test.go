package scheme

import (
	"testing"

	"repro/internal/geom"
)

func rxU(u float64) Reception {
	return Reception{From: 1, SenderPos: geom.Point{X: 100}, U: u}
}

// initial returns a fresh judge's first verdict.
func initial(j Judge) Action { return j.Initial() }

func TestProbabilisticUsesVariate(t *testing.T) {
	s := Probabilistic{P: 0.5}
	if initial(s.NewJudge(host(), rxU(0.49))) != Proceed {
		t.Error("U below P should proceed")
	}
	if initial(s.NewJudge(host(), rxU(0.51))) != Inhibit {
		t.Error("U above P should inhibit")
	}
}

func TestProbabilisticExtremes(t *testing.T) {
	// P=1 behaves like flooding for any variate in [0,1).
	for _, u := range []float64{0, 0.5, 0.999999} {
		if initial(Probabilistic{P: 1}.NewJudge(host(), rxU(u))) != Proceed {
			t.Errorf("P=1 inhibited at U=%v", u)
		}
	}
	// P=0 never rebroadcasts.
	for _, u := range []float64{0, 0.5, 0.999999} {
		if initial(Probabilistic{P: 0}.NewJudge(host(), rxU(u))) != Inhibit {
			t.Errorf("P=0 proceeded at U=%v", u)
		}
	}
}

func TestProbabilisticDuplicatesIrrelevant(t *testing.T) {
	j := Probabilistic{P: 0.9}.NewJudge(host(), rxU(0.1))
	for i := 0; i < 5; i++ {
		if j.OnDuplicate(rxU(0.99)) != Proceed {
			t.Error("duplicates must not flip a gossip decision")
		}
	}
}

func TestProbabilisticMetadata(t *testing.T) {
	s := Probabilistic{P: 0.25}
	if s.Name() != "P=0.25" {
		t.Errorf("name = %s", s.Name())
	}
	if s.NeedsHello() || s.NeedsPosition() {
		t.Error("gossip needs neither HELLO nor GPS")
	}
}
