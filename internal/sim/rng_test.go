package sim

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided on %d of 100 draws", same)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	c1again := parent.Fork(1)
	for i := 0; i < 100; i++ {
		v1 := c1.Uint64()
		if v1 != c1again.Uint64() {
			t.Fatal("same-label forks are not identical")
		}
		if v1 == c2.Uint64() {
			t.Fatal("different-label forks collided")
		}
	}
}

func TestRNGForkDoesNotPerturbParent(t *testing.T) {
	a := NewRNG(9)
	b := NewRNG(9)
	_ = a.Fork(123)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Fork consumed parent stream state")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean of %d uniform draws = %v, want ~0.5", n, mean)
	}
}

func TestIntNRange(t *testing.T) {
	r := NewRNG(5)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.IntN(7)
		if v < 0 || v >= 7 {
			t.Fatalf("IntN(7) = %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 8500 || c > 11500 {
			t.Errorf("IntN(7) produced value %d %d times out of 70000; grossly non-uniform", v, c)
		}
	}
}

func TestIntNPanicsOnNonPositive(t *testing.T) {
	r := NewRNG(6)
	defer func() {
		if recover() == nil {
			t.Error("IntN(0) did not panic")
		}
	}()
	r.IntN(0)
}

func TestUniformDuration(t *testing.T) {
	r := NewRNG(8)
	lo, hi := Duration(100), Duration(200)
	for i := 0; i < 1000; i++ {
		d := r.UniformDuration(lo, hi)
		if d < lo || d >= hi {
			t.Fatalf("UniformDuration(%v,%v) = %v", lo, hi, d)
		}
	}
	if got := r.UniformDuration(50, 50); got != 50 {
		t.Errorf("degenerate range returned %v, want 50", got)
	}
}

func TestAngleRange(t *testing.T) {
	r := NewRNG(10)
	for i := 0; i < 1000; i++ {
		a := r.Angle()
		if a < 0 || a >= 2*math.Pi {
			t.Fatalf("Angle() = %v out of [0, 2pi)", a)
		}
	}
}

func TestUniformFloatRange(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		v := r.UniformFloat(-2.5, 7.5)
		if v < -2.5 || v >= 7.5 {
			t.Fatalf("UniformFloat out of range: %v", v)
		}
	}
}

func TestDurationConversions(t *testing.T) {
	if d := DurationFromSeconds(1.5); d != 1500*Millisecond {
		t.Errorf("DurationFromSeconds(1.5) = %v, want 1.5s", d)
	}
	if s := (2 * Second).Seconds(); s != 2.0 {
		t.Errorf("(2s).Seconds() = %v", s)
	}
	tm := Time(0).Add(3 * Second)
	if tm.Seconds() != 3.0 {
		t.Errorf("time add: %v", tm)
	}
	if tm.Sub(Time(1*Second)) != 2*Second {
		t.Errorf("time sub: %v", tm.Sub(Time(1*Second)))
	}
}
