package mac

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
