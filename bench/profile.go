package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the rows of the CPU-share table: the simulator's modules
// plus two rows for samples with no simulator frame on the stack.
var cpuLayers = []string{
	"experiment", "manet", "sim", "geom", "mobility", "phy", "mac", "packet",
	"nodeset", "neighbor", "scheme", "metrics", "pdes", "snapshot",
	"runtime.gc", "runtime.other",
}

// stackSample is one CPU-profile sample: function names from the leaf
// outwards and the CPU time charged to the stack.
type stackSample struct {
	frames []string
	nanos  int64
}

// layerOfFrame names the layer a function belongs to: the package under
// repro/internal/, or experiment for the bench's own copy of the sweep
// loop, which stands in for experiment.RunMatrix in a traced run.
func layerOfFrame(fn string) (string, bool) {
	for _, own := range []string{"main.", "repro/bench."} { // the binary's, and the test binary's, name for this package
		if rest, ok := strings.CutPrefix(fn, own); ok && (strings.HasPrefix(rest, "tracedMatrix") || strings.HasPrefix(rest, "tracedOp")) {
			return "experiment", true
		}
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return "", false
	}
	pkg := rest[:strings.IndexAny(rest+".", "./")]
	for _, l := range cpuLayers {
		if l == pkg {
			return pkg, true
		}
	}
	return "", false
}

// gcFrame reports whether a runtime function belongs to the collector's
// own goroutines: mark, sweep and scavenge workers.
func gcFrame(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain", "runtime.gcMark", "runtime.gcStart", "runtime.gcAssist"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// foldProfile charges every sample to the first frame from the leaf that
// lies in a layer, so time in math, slices, cmp or the map runtime lands
// on the layer that called it. Samples with no layer frame go to
// runtime.gc when a collector frame is on the stack, else to
// runtime.other. The result is each layer's share of all sampled time.
func foldProfile(samples []stackSample) map[string]float64 {
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	var total float64
	for _, s := range samples {
		layer := "runtime.other"
		found := false
		for _, fn := range s.frames {
			if l, ok := layerOfFrame(fn); ok {
				layer, found = l, true
				break
			}
		}
		if !found {
			for _, fn := range s.frames {
				if gcFrame(fn) {
					layer = "runtime.gc"
					break
				}
			}
		}
		shares[layer] += float64(s.nanos)
		total += float64(s.nanos)
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= total
		}
	}
	return shares
}

// parseProfile reads the gzip-compressed protocol buffer that
// runtime/pprof writes and returns its samples with resolved function
// names. It decodes only the fields the fold needs (perftools.profiles
// Profile: sample=2, location=4, function=5, string_table=6).
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost inlined call first
		funcNames = map[uint64]uint64{}   // function id -> string table index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id
					s.locs = appendVarints(s.locs, v, b)
				case 2: // value: the last one is CPU nanoseconds
					if vals := appendVarints(nil, v, b); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{nanos: s.value}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					st.frames = append(st.frames, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protocol buffer")

// eachField walks the fields of one protocol-buffer message. f receives
// the value of a varint field in v and the bytes of a length-delimited
// field in b; fixed-width fields are skipped.
func eachField(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			if err := f(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: the packed
// run in b, or the single unpacked value v.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
