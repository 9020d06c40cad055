package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/packet"
	"repro/internal/sim"
)

// jsonlVersion is the version of the telemetry JSONL schema. Every line
// carries it as "v"; Decode rejects lines from any other version.
const jsonlVersion = 1

// Meta is the header line of a telemetry export: one per stream, first
// line, describing the run and the column order of every sample line.
type Meta struct {
	V        int      `json:"v"`
	Type     string   `json:"type"`
	Scheme   string   `json:"scheme,omitempty"`
	Hosts    int      `json:"hosts,omitempty"`
	MapUnits int      `json:"map_units,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`
	TickUS   int64    `json:"tick_us,omitempty"`
	Series   []string `json:"series"`
}

// sampleRecord is the wire form of one time-series row; values align
// with Meta.Series.
type sampleRecord struct {
	V      int       `json:"v"`
	Type   string    `json:"type"`
	TUS    int64     `json:"t_us"`
	Values []float64 `json:"values"`
}

// eventRecord is the wire form of one trace event.
type eventRecord struct {
	V    int    `json:"v"`
	Type string `json:"type"`
	TUS  int64  `json:"t_us"`
	Kind string `json:"kind"`
	Src  int    `json:"src"`
	Seq  uint32 `json:"seq"`
	Host int    `json:"host"`
}

// Dump is a decoded telemetry export.
type Dump struct {
	Meta    Meta
	Samples []Sample
	Events  []Event
}

// Export writes one run's telemetry as versioned JSONL: a meta line,
// then every sample, then the trace events (events may be nil), one
// object per line with times in integer microseconds. The meta's
// version, type, tick, and series are filled in from the collector;
// callers set the run-description fields.
func Export(w io.Writer, meta Meta, c *Collector, events []Event) error {
	meta.V = jsonlVersion
	meta.Type = "meta"
	meta.TickUS = int64(c.Tick())
	meta.Series = c.SeriesNames()
	if meta.Series == nil {
		meta.Series = []string{}
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for _, s := range c.Samples() {
		rec := sampleRecord{V: jsonlVersion, Type: "sample", TUS: int64(s.At), Values: s.Values}
		if rec.Values == nil {
			rec.Values = []float64{}
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	for _, e := range events {
		rec := eventRecord{
			V:    jsonlVersion,
			Type: "event",
			TUS:  int64(e.At),
			Kind: e.Kind.String(),
			Src:  int(e.Broadcast.Source),
			Seq:  e.Broadcast.Seq,
			Host: int(e.Host),
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a telemetry export back. It validates the schema version
// on every line, requires the meta line to precede any sample or event,
// checks each sample row against the meta's series width, and refuses
// an unknown event kind. Unknown record types are skipped (forward
// compatibility within a version).
func Decode(r io.Reader) (*Dump, error) {
	d := &Dump{}
	sawMeta := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var head struct {
			V    int    `json:"v"`
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &head); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		if head.V != jsonlVersion {
			return nil, fmt.Errorf("obs: line %d: schema version %d, want %d", line, head.V, jsonlVersion)
		}
		switch head.Type {
		case "meta":
			if sawMeta {
				return nil, fmt.Errorf("obs: line %d: duplicate meta line", line)
			}
			if err := json.Unmarshal(raw, &d.Meta); err != nil {
				return nil, fmt.Errorf("obs: line %d: %w", line, err)
			}
			sawMeta = true
		case "sample":
			if !sawMeta {
				return nil, fmt.Errorf("obs: line %d: sample before meta line", line)
			}
			var rec sampleRecord
			if err := json.Unmarshal(raw, &rec); err != nil {
				return nil, fmt.Errorf("obs: line %d: %w", line, err)
			}
			if len(rec.Values) != len(d.Meta.Series) {
				return nil, fmt.Errorf("obs: line %d: sample has %d values, meta declares %d series",
					line, len(rec.Values), len(d.Meta.Series))
			}
			d.Samples = append(d.Samples, Sample{At: sim.Time(rec.TUS), Values: rec.Values})
		case "event":
			if !sawMeta {
				return nil, fmt.Errorf("obs: line %d: event before meta line", line)
			}
			var rec eventRecord
			if err := json.Unmarshal(raw, &rec); err != nil {
				return nil, fmt.Errorf("obs: line %d: %w", line, err)
			}
			kind, ok := kindFromString(rec.Kind)
			if !ok {
				return nil, fmt.Errorf("obs: line %d: unknown event kind %q", line, rec.Kind)
			}
			d.Events = append(d.Events, Event{
				At:        sim.Time(rec.TUS),
				Kind:      kind,
				Broadcast: packet.BroadcastID{Source: packet.NodeID(rec.Src), Seq: rec.Seq},
				Host:      packet.NodeID(rec.Host),
			})
		default:
			// Skip unknown record types within a known version.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawMeta {
		return nil, fmt.Errorf("obs: no meta line in stream")
	}
	return d, nil
}

// kindFromString inverts Kind.String.
func kindFromString(s string) (Kind, bool) {
	for k := Originate; k <= Garbled; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}
