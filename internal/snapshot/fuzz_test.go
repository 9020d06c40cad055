package snapshot_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/manet"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// corpusConfig is the small deterministic run the checked-in corpus is
// cut from.
func corpusConfig() manet.Config {
	return manet.Config{
		Scheme: scheme.AdaptiveCounter{}, Hosts: 12, MapUnits: 2, Requests: 3,
		Repair: true, Seed: 5, Warmup: sim.Second,
	}
}

// realCheckpoint produces checkpoint bytes from an actual small
// simulation — deterministic, so fuzz seeds derived from it are stable.
func realCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	net, err := manet.New(corpusConfig())
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	captured := errors.New("captured")
	net.CheckpointEvery = 2 * sim.Second
	net.CheckpointHook = func(sim.Time) error {
		if err := net.Checkpoint(&buf); err != nil {
			return err
		}
		return captured
	}
	if _, err := net.RunContext(context.Background()); !errors.Is(err, captured) {
		tb.Fatalf("run ended without hitting a checkpoint window: %v", err)
	}
	return buf.Bytes()
}

// FuzzSnapshotDecode drives arbitrary bytes through the checkpoint
// decoder. The contract: Decode never panics, an error never comes with
// a partial document, and any input it accepts is canonical —
// re-encoding the decoded document reproduces the input byte for byte.
func FuzzSnapshotDecode(f *testing.F) {
	real := realCheckpoint(f)
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add(append(append([]byte(nil), real...), 0))
	f.Add([]byte{})
	f.Add([]byte(snapshot.Magic))
	f.Add([]byte(snapshot.Magic + "\x01"))
	f.Add([]byte(snapshot.Magic + "\x02"))
	mut := append([]byte(nil), real...)
	mut[len(mut)/3] ^= 0x40
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := snapshot.Decode(data)
		if err != nil {
			if ck != nil {
				t.Fatal("Decode returned a document alongside an error")
			}
			return
		}
		if ck == nil {
			t.Fatal("Decode returned no document and no error")
		}
		if again := snapshot.Append(nil, ck); !bytes.Equal(again, data) {
			t.Fatalf("accepted input is not canonical:\nin:  %x\nout: %x", data, again)
		}
	})
}
