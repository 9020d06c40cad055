package sim

// Cancelled reports whether the event was cancelled before firing.
func (e *Event) Cancelled() bool { return e.cancel }

// Shuffle pseudo-randomly permutes the first n elements using swap,
// following the Fisher-Yates algorithm.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		swap(i, j)
	}
}
