package mac

import "repro/internal/packet"

// ReceiverFunc adapts a function taking intact frames to Upper; it
// drops collided ones.
type ReceiverFunc func(f *packet.Frame)

// ReceiveFrame implements Upper.
func (fn ReceiverFunc) ReceiveFrame(f *packet.Frame) { fn(f) }

// ReceiveGarbled implements Upper.
func (fn ReceiverFunc) ReceiveGarbled(*packet.Frame) {}

// UpperFuncs adapts a function per intake to Upper.
type UpperFuncs struct {
	Frame, Garbled func(f *packet.Frame)
}

// ReceiveFrame implements Upper.
func (u UpperFuncs) ReceiveFrame(f *packet.Frame) { u.Frame(f) }

// ReceiveGarbled implements Upper.
func (u UpperFuncs) ReceiveGarbled(f *packet.Frame) { u.Garbled(f) }

// Started reports whether the frame's transmission has begun.
func (p *Pending) Started() bool { return p.started }

// Cancelled reports whether the frame was cancelled before transmission.
func (p *Pending) Cancelled() bool { return p.cancelled }

// QueueLen returns the number of frames waiting (not yet on the air).
func (m *MAC) QueueLen() int {
	n := 0
	for _, p := range m.queue[m.qhead:] {
		if !p.cancelled {
			n++
		}
	}
	return n
}

// World returns the Shared block the MAC was built over; a MAC built by
// New owns its block, so a setter on it reaches that MAC alone.
func (m *MAC) World() *Shared { return m.w }
