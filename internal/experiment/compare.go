package experiment

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/scheme"
)

// CompareSpec builds an ad-hoc experiment from parsed scheme specs: the
// schemes are swept over every map size exactly like the paper figures,
// with RE, SRB, and latency tables. It is what `figures -compare` runs.
func CompareSpec(schemes []scheme.Scheme) Spec {
	labels := make([]string, len(schemes))
	candidates := make([]edit, len(schemes))
	for i, s := range schemes {
		labels[i] = s.Name()
		candidates[i] = use(s.Name(), s)
	}
	return Spec{
		ID:    "compare",
		Title: "scheme comparison: " + strings.Join(labels, " vs "),
		Paper: "ad-hoc comparison; closest figure is Fig. 13",
		Run:   byMap("compare", "scheme comparison", true, candidates...),
	}
}

// LoadReport renders a decoded telemetry dump as a per-interval channel
// load table: for each gap between consecutive samples, the average
// number of concurrently busy radios (busy radio-seconds per second) and
// the transmission, delivery, and collision rates. It errors if the dump
// lacks the phy series, since a report built from missing columns would
// silently read zeros.
func LoadReport(d *obs.Dump) (*Table, error) {
	idx := map[string]int{}
	for i, name := range d.Meta.Series {
		idx[name] = i
	}
	var missing []string
	col := func(name string) int {
		i, ok := idx[name]
		if !ok {
			missing = append(missing, name)
		}
		return i
	}
	busy := col("phy.busy_radio_seconds")
	tx := col("phy.transmissions")
	del := col("phy.deliveries")
	coll := col("phy.collisions")
	if len(missing) > 0 {
		return nil, fmt.Errorf("experiment: telemetry dump lacks series %s", strings.Join(missing, ", "))
	}
	if len(d.Samples) < 2 {
		return nil, fmt.Errorf("experiment: telemetry dump has %d samples, need at least 2 for rates", len(d.Samples))
	}
	// Event-core health columns are optional so dumps recorded before the
	// scheduler exported them still render. Both are instantaneous gauges,
	// shown at the sample instant rather than as interval rates.
	pend, hasPend := idx["sim.pending_events"]
	pool, hasPool := idx["sim.event_pool_hit_rate"]
	// Likewise the sharded engine's border-lane share (fraction of
	// executed events that ran on the sequential border lane rather
	// than a parallel shard drain) only exists on sharded runs.
	border, hasBorder := idx["engine.border_share"]

	columns := []string{"t(s)", "busy radios", "tx/s", "deliv/s", "coll/s"}
	if hasPend {
		columns = append(columns, "pending ev")
	}
	if hasPool {
		columns = append(columns, "ev pool hit")
	}
	if hasBorder {
		columns = append(columns, "border share")
	}
	t := NewTable("telemetry",
		fmt.Sprintf("channel load: %s, %d hosts, %dx%d map, seed %d",
			d.Meta.Scheme, d.Meta.Hosts, d.Meta.MapUnits, d.Meta.MapUnits, d.Meta.Seed),
		columns...)
	for i := 1; i < len(d.Samples); i++ {
		prev, cur := d.Samples[i-1], d.Samples[i]
		dt := float64(cur.At-prev.At) / 1e6 // sim.Time is microseconds
		if dt <= 0 {
			continue
		}
		rate := func(c int) float64 { return (cur.Values[c] - prev.Values[c]) / dt }
		row := []string{
			fmt.Sprintf("%.1f", float64(cur.At)/1e6),
			fmt.Sprintf("%.3f", rate(busy)),
			fmt.Sprintf("%.1f", rate(tx)),
			fmt.Sprintf("%.1f", rate(del)),
			fmt.Sprintf("%.1f", rate(coll)),
		}
		if hasPend {
			row = append(row, fmt.Sprintf("%.0f", cur.Values[pend]))
		}
		if hasPool {
			row = append(row, fmt.Sprintf("%.3f", cur.Values[pool]))
		}
		if hasBorder {
			row = append(row, fmt.Sprintf("%.3f", cur.Values[border]))
		}
		t.AddRow(row...)
	}
	return t, nil
}
