package mac

import "repro/internal/packet"

// ReceiverFunc adapts a function to FrameReceiver.
type ReceiverFunc func(f *packet.Frame)

// ReceiveFrame implements FrameReceiver.
func (fn ReceiverFunc) ReceiveFrame(f *packet.Frame) { fn(f) }

// GarbledFunc adapts a function to GarbledReceiver.
type GarbledFunc func(f *packet.Frame)

// ReceiveGarbled implements GarbledReceiver.
func (fn GarbledFunc) ReceiveGarbled(f *packet.Frame) { fn(f) }

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
