package scheme

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
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

// judgeSpecs covers every registry family, cluster with members that
// defer to each kind of inner judge included.
var judgeSpecs = []string{
	"flooding", "prob:P=0.5", "counter:C=2", "counter:C=4", "distance:D=120",
	"location:A=0.0469", "location:A=0.1871", "ac", "al", "al:n1=1,n2=3", "nc",
	"cluster", "cluster:inner=counter:C=3", "cluster:inner=location:A=0.0469", "cluster:inner=nc",
}

// FuzzJudgeCheckpoint drives one judge through a fuzzed world and cuts
// it in two. The bytes pick a scheme from judgeSpecs, a host among ids
// 0..15 with a neighbor set and each neighbor's two-hop list, a cut
// point and a sequence of receptions. At the cut the judge is
// checkpointed and restored into a fresh one, and the original is
// moved by copy, its old storage overwritten. From there both judges
// must give the same verdict to every reception and end in the same
// JudgeState — a copied judge whose senders still pointed into the old
// storage would not.
func FuzzJudgeCheckpoint(f *testing.F) {
	for _, n := range Names() {
		covered := false
		for _, spec := range judgeSpecs {
			covered = covered || strings.HasPrefix(spec, n)
		}
		if !covered {
			f.Fatalf("no spec of family %q in judgeSpecs", n)
		}
	}
	for i := range judgeSpecs {
		seed := []byte{byte(i), byte(i * 7), 0xff, 0x7f}
		for k := 0; k < 32; k++ {
			seed = append(seed, byte(k*37+i))
		}
		seed = append(seed, byte(i%6))
		for k := 0; k < 9; k++ {
			seed = append(seed, byte(k+1), byte(90-k*23), byte(k*41), byte(k*29))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		s, err := Parse(judgeSpecs[int(next())%len(judgeSpecs)])
		if err != nil {
			t.Fatal(err)
		}
		h := host()
		h.id = packet.NodeID(next() % 16)
		mask := uint16(next()) | uint16(next())<<8
		for id := packet.NodeID(0); id < 16; id++ {
			two := uint16(next()) | uint16(next())<<8
			if mask&(1<<id) == 0 || id == h.id {
				continue
			}
			h.neighbors = append(h.neighbors, id)
			for n := packet.NodeID(0); n < 16; n++ {
				if two&(1<<n) != 0 && n != id {
					h.twoHop[id] = append(h.twoHop[id], n)
				}
			}
		}
		cut := int(next() % 16)
		reception := func() Reception {
			return Reception{
				From:      packet.NodeID(next() % 16),
				SenderPos: geom.Point{X: 5 * float64(int8(next())), Y: 5 * float64(int8(next()))},
				U:         float64(next()) / 256,
			}
		}

		j := s.NewJudge(h, reception())
		if j.Initial() == Inhibit {
			ReleaseJudge(j)
			return
		}
		for k := 0; k < cut && len(data) > 0; k++ {
			if j.OnDuplicate(reception()) == Inhibit {
				ReleaseJudge(j)
				return
			}
		}
		restored, err := RestoreJudge(SnapshotJudge(&j), h)
		if err != nil {
			t.Fatalf("%s: restore of a checkpointed judge: %v", s.Name(), err)
		}
		moved := j
		j = s.NewJudge(h, Reception{From: 15, SenderPos: geom.Point{X: -1, Y: -1}})
		for len(data) > 0 {
			r := reception()
			got, want := restored.OnDuplicate(r), moved.OnDuplicate(r)
			if got != want {
				t.Fatalf("%s: restored judge decided %v, the moved original %v", s.Name(), got, want)
			}
			if got == Inhibit {
				break
			}
		}
		if a, b := SnapshotJudge(&restored), SnapshotJudge(&moved); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: restored judge ends in %+v, the moved original in %+v", s.Name(), a, b)
		}
		ReleaseJudge(j)
		ReleaseJudge(moved)
		ReleaseJudge(restored)
	})
}
