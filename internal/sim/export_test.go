package sim

// Cancelled reports whether the event was cancelled before firing.
func (e *Event) Cancelled() bool { return e.cancel }
