package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/packet"
	"repro/internal/sim"
)

// JSONLVersion is the version of the telemetry/trace JSONL schema. Every
// line carries it as "v"; decoders reject lines from a different major
// version. The obs package shares this constant so time-series samples
// and trace events form one versioned stream (see obs.Export).
const JSONLVersion = 1

// eventRecord is the wire form of one trace event: one JSON object per
// line, type "event", times in integer microseconds.
type eventRecord struct {
	V    int    `json:"v"`
	Type string `json:"type"`
	TUS  int64  `json:"t_us"`
	Kind string `json:"kind"`
	Src  int    `json:"src"`
	Seq  uint32 `json:"seq"`
	Host int    `json:"host"`
}

// EncodeJSONL writes events as JSONL (one object per line) in the shared
// telemetry schema.
func EncodeJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		rec := eventRecord{
			V:    JSONLVersion,
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

// EncodeJSONL writes the recorder's events as JSONL.
func (r *Recorder) EncodeJSONL(w io.Writer) error {
	return EncodeJSONL(w, r.events)
}

// DecodeJSONL reads events back from a JSONL stream in the shared
// telemetry schema. Lines of other record types (meta, sample) are
// skipped, so a full obs export decodes to just its event stream; a
// version mismatch or malformed event line is an error.
func DecodeJSONL(r io.Reader) ([]Event, error) {
	var out []Event
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
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if head.V != JSONLVersion {
			return nil, fmt.Errorf("trace: line %d: schema version %d, want %d", line, head.V, JSONLVersion)
		}
		if head.Type != "event" {
			continue
		}
		var rec eventRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		kind, ok := kindFromString(rec.Kind)
		if !ok {
			return nil, fmt.Errorf("trace: line %d: unknown event kind %q", line, rec.Kind)
		}
		out = append(out, Event{
			At:        sim.Time(rec.TUS),
			Kind:      kind,
			Broadcast: packet.BroadcastID{Source: packet.NodeID(rec.Src), Seq: rec.Seq},
			Host:      packet.NodeID(rec.Host),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// kindFromString inverts Kind.String for decoding.
func kindFromString(s string) (Kind, bool) {
	for k := Originate; k <= Garbled; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}
