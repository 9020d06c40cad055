package scheme

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// The registry gives every scheme a single textual spec syntax shared by
// all the cmd tools:
//
//	name
//	name:key=value,key=value,...
//
// Names and keys are case-insensitive; each scheme documents its keys
// and their paper defaults (see Usage). Examples:
//
//	flooding
//	counter:C=3
//	distance:D=40
//	location:A=0.0469
//	prob:P=0.7
//	ac:n1=3,n2=10
//	al:n1=6,n2=12
//	nc
//	cluster:inner=counter:C=2
//
// The cluster scheme's inner value is itself a spec, parsed recursively;
// because commas separate parameters, an inner spec may carry at most
// one parameter of its own.

// registryEntry describes one parseable scheme family.
type registryEntry struct {
	name    string // canonical name
	aliases []string
	usage   string // "name[:keys]  description" line for CLI help
	build   func(p *specParams) (Scheme, error)
}

// registry lists every scheme family in canonical order. It is filled
// in init (not a composite literal) because the cluster entry's builder
// re-enters Parse, which would otherwise be an initialization cycle.
var registry []registryEntry

func init() {
	registry = []registryEntry{
		{
			name:  "flooding",
			usage: "flooding                     every host rebroadcasts once (baseline)",
			build: func(p *specParams) (Scheme, error) { return Flooding{}, nil },
		},
		{
			name:    "prob",
			aliases: []string{"probabilistic", "gossip"},
			usage:   "prob:P=0.7                  rebroadcast with probability P",
			build: func(p *specParams) (Scheme, error) {
				pr, err := p.floatOr("p", 0.7)
				if err != nil {
					return nil, err
				}
				if pr < 0 || pr > 1 {
					return nil, fmt.Errorf("P=%g outside [0, 1]", pr)
				}
				return Probabilistic{P: pr}, nil
			},
		},
		{
			name:  "counter",
			usage: "counter:C=3                 fixed counter threshold C",
			build: func(p *specParams) (Scheme, error) {
				c, err := p.intOr("c", 3)
				if err != nil {
					return nil, err
				}
				if c < 1 {
					return nil, fmt.Errorf("C=%d must be at least 1", c)
				}
				return Counter{C: c}, nil
			},
		},
		{
			name:  "distance",
			usage: "distance:D=40               fixed distance threshold D meters",
			build: func(p *specParams) (Scheme, error) {
				d, err := p.floatOr("d", 40)
				if err != nil {
					return nil, err
				}
				if d < 0 {
					return nil, fmt.Errorf("D=%g must be non-negative", d)
				}
				return Distance{D: d}, nil
			},
		},
		{
			name:  "location",
			usage: "location:A=0.0469           fixed additional-coverage threshold A",
			build: func(p *specParams) (Scheme, error) {
				a, err := p.floatOr("a", 0.0469)
				if err != nil {
					return nil, err
				}
				if a < 0 || a > 1 {
					return nil, fmt.Errorf("A=%g outside [0, 1]", a)
				}
				return Location{A: a}, nil
			},
		},
		{
			name:    "ac",
			aliases: []string{"adaptive-counter"},
			usage:   "ac[:n1=4,n2=12]             adaptive counter C(n); default = paper's tuned table",
			build: func(p *specParams) (Scheme, error) {
				_, hasN1 := p.raw("n1")
				_, hasN2 := p.raw("n2")
				if hasN1 != hasN2 {
					return nil, fmt.Errorf("n1 and n2 must be given together")
				}
				if !hasN1 {
					return AdaptiveCounter{}, nil
				}
				n1, err := p.intOr("n1", 0)
				if err != nil {
					return nil, err
				}
				n2, err := p.intOr("n2", 0)
				if err != nil {
					return nil, err
				}
				if n1 < 1 || n2 <= n1 {
					return nil, fmt.Errorf("need 1 <= n1 < n2, got n1=%d n2=%d", n1, n2)
				}
				return AdaptiveCounter{
					C:     LinearCounterFunc(n1, n2),
					Label: fmt.Sprintf("AC(%d,%d)", n1, n2),
				}, nil
			},
		},
		{
			name:    "al",
			aliases: []string{"adaptive-location"},
			usage:   "al[:n1=6,n2=12,max=0.187]   adaptive location A(n)",
			build: func(p *specParams) (Scheme, error) {
				n1, err := p.intOr("n1", 6)
				if err != nil {
					return nil, err
				}
				n2, err := p.intOr("n2", 12)
				if err != nil {
					return nil, err
				}
				max, err := p.floatOr("max", EAC2Fraction)
				if err != nil {
					return nil, err
				}
				if n1 < 0 || n2 <= n1 {
					return nil, fmt.Errorf("need 0 <= n1 < n2, got n1=%d n2=%d", n1, n2)
				}
				if max <= 0 || max > 1 {
					return nil, fmt.Errorf("max=%g outside (0, 1]", max)
				}
				if n1 == 6 && n2 == 12 && max == EAC2Fraction {
					return AdaptiveLocation{}, nil // paper default, canonical "AL" label
				}
				return AdaptiveLocation{
					A:     LinearLocationFunc(n1, n2, max),
					Label: fmt.Sprintf("AL(%d,%d,%.3f)", n1, n2, max),
				}, nil
			},
		},
		{
			name:    "nc",
			aliases: []string{"neighbor-coverage"},
			usage:   "nc                          neighbor coverage (two-hop HELLO knowledge)",
			build:   func(p *specParams) (Scheme, error) { return NeighborCoverage{}, nil },
		},
		{
			name:  "cluster",
			usage: "cluster[:inner=<spec>]      cluster heads/gateways apply the inner spec",
			build: func(p *specParams) (Scheme, error) {
				inner, ok := p.raw("inner")
				if !ok {
					return Cluster{}, nil
				}
				in, err := Parse(inner)
				if err != nil {
					return nil, fmt.Errorf("inner spec: %w", err)
				}
				return Cluster{Inner: in}, nil
			},
		},
	}
}

// Parse builds a scheme from its textual spec. It is the single scheme
// construction path for every cmd tool; an unknown name, malformed or
// unknown parameter, or out-of-contract value is an error naming the
// offending spec.
func Parse(spec string) (Scheme, error) {
	name, rest := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name, rest = spec[:i], spec[i+1:]
	}
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return nil, fmt.Errorf("scheme: empty spec")
	}
	e := lookupEntry(name)
	if e == nil {
		return nil, fmt.Errorf("scheme: unknown scheme %q (have %s)", name, strings.Join(Names(), ", "))
	}
	p, err := parseParams(rest)
	if err != nil {
		return nil, fmt.Errorf("scheme %q: %w", spec, err)
	}
	s, err := e.build(p)
	if err != nil {
		return nil, fmt.Errorf("scheme %q: %w", spec, err)
	}
	if extra := p.unused(); len(extra) > 0 {
		return nil, fmt.Errorf("scheme %q: unknown parameter(s) %s for %s",
			spec, strings.Join(extra, ", "), e.name)
	}
	return s, nil
}

// Names returns the canonical scheme names, sorted alphabetically so
// enumeration is deterministic and independent of registration order
// (pinned by TestEnumerationGolden).
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	sort.Strings(out)
	return out
}

// Usage returns a multi-line description of every spec for CLI help,
// one line per scheme family, sorted by canonical name like Names.
func Usage() string {
	lines := make([]string, len(registry))
	for i, e := range registry {
		lines[i] = e.usage
	}
	sort.Strings(lines)
	var b strings.Builder
	for _, u := range lines {
		fmt.Fprintf(&b, "  %s\n", u)
	}
	return b.String()
}

func lookupEntry(name string) *registryEntry {
	for i := range registry {
		e := &registry[i]
		if e.name == name {
			return e
		}
		for _, a := range e.aliases {
			if a == name {
				return e
			}
		}
	}
	return nil
}

// specParams holds a spec's key=value pairs and tracks which ones the
// builder consumed, so leftovers surface as errors instead of being
// silently ignored.
type specParams struct {
	kv   map[string]string
	used map[string]bool
}

func parseParams(rest string) (*specParams, error) {
	p := &specParams{kv: map[string]string{}, used: map[string]bool{}}
	if strings.TrimSpace(rest) == "" {
		return p, nil
	}
	for _, part := range strings.Split(rest, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		i := strings.IndexByte(part, '=')
		if i <= 0 {
			return nil, fmt.Errorf("malformed parameter %q (want key=value)", part)
		}
		key := strings.ToLower(strings.TrimSpace(part[:i]))
		val := strings.TrimSpace(part[i+1:])
		if _, dup := p.kv[key]; dup {
			return nil, fmt.Errorf("duplicate parameter %q", key)
		}
		p.kv[key] = val
	}
	return p, nil
}

// raw returns a parameter's string value, marking it consumed.
func (p *specParams) raw(key string) (string, bool) {
	v, ok := p.kv[key]
	if ok {
		p.used[key] = true
	}
	return v, ok
}

func (p *specParams) intOr(key string, def int) (int, error) {
	v, ok := p.raw(key)
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an integer", key, v)
	}
	return n, nil
}

func (p *specParams) floatOr(key string, def float64) (float64, error) {
	v, ok := p.raw(key)
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not a number", key, v)
	}
	// NaN compares false with everything, so every scheme's range check
	// would let it through, and an infinity passes the one-sided ones.
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("parameter %s=%q is not finite", key, v)
	}
	return f, nil
}

func (p *specParams) unused() []string {
	var out []string
	for k := range p.kv {
		if !p.used[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
