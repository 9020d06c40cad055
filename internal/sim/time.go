// Package sim provides the discrete-event simulation kernel used by the
// broadcast-storm simulator: a virtual clock, a cancellable event queue,
// and deterministic pseudo-random number streams.
//
// The kernel is intentionally minimal and fully deterministic: given the
// same seed and the same sequence of Schedule calls, a simulation replays
// identically. All higher layers (PHY, MAC, schemes, mobility) are built
// on top of it.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, measured in microseconds from the
// start of the simulation. Microsecond resolution matches the IEEE 802.11
// DSSS timing constants used by the paper (slot = 20 us, SIFS = 10 us).
type Time int64

// Duration is a span of simulated time in microseconds.
type Duration int64

// Common durations, mirroring the time package but in simulated
// microseconds.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
)

// Add returns the time offset by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as fractional seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Seconds returns the duration as fractional seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds returns the duration as fractional milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Std converts the simulated duration to a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) * time.Microsecond }

// String formats the duration using standard duration notation.
func (d Duration) String() string { return d.Std().String() }

// DurationFromSeconds converts fractional seconds to a simulated duration,
// rounding to the nearest microsecond.
func DurationFromSeconds(s float64) Duration {
	return Duration(s*float64(Second) + 0.5)
}
