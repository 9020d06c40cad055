// Package pdes supplies the parallel discrete-event-simulation substrate
// for the sharded engine: a bounded-channel worker pool with barrier
// semantics, and the connected-component walker used for reachability
// queries.
//
// Design note — what is and is not parallelized on the event spine: the
// MAC grants immediate channel access at the current instant (zero
// lookahead), and carrier-sense transitions cascade across hops within a
// single timestamp, so the global (time, seq) tie order that the
// byte-identical oracle contract pins cannot be reproduced for radio
// events without serializing exactly the events a parallel executor
// would need to reorder. The sharded engine therefore splits each
// conservative barrier window by event class: shard-local mobility
// turns — pure host-local work with lookahead of at least one minimum
// turn duration — drain concurrently, one pool worker per shard wheel
// (sim.DrainShardUntil), while every radio, HELLO, and record event
// runs on the sequential merged drain, the deterministic border lane
// (see manet's parallel.go for the exactness argument). The pool also
// drives batched construction and snapshot evaluation. Shard
// synchronization happens at conservative barrier windows derived from
// the minimum frame airtime plus the speed bound; at each barrier,
// cancellation and the cross-shard monotonicity audit run.
package pdes

import "sync"

// job is one contiguous index range dispatched to a worker.
type job struct {
	lo, hi int
	f      func(shard, lo, hi int)
}

// Pool is a fixed set of workers fed over bounded channels. Do splits an
// index range across the workers and blocks until every slice is done
// (a barrier). After Close, Do degrades to inline sequential execution,
// so late callers (post-run accessors) keep working without leaking
// goroutines.
type Pool struct {
	work []chan job
	done chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// NewPool starts n workers. n must be positive.
func NewPool(n int) *Pool {
	if n <= 0 {
		panic("pdes: pool size must be positive")
	}
	p := &Pool{
		work: make([]chan job, n),
		done: make(chan struct{}, n),
	}
	for i := range p.work {
		// Capacity 1: a dispatch never blocks the caller, and a worker
		// never holds more than one outstanding job.
		p.work[i] = make(chan job, 1)
		p.wg.Add(1)
		go p.worker(i)
	}
	return p
}

func (p *Pool) worker(shard int) {
	defer p.wg.Done()
	for j := range p.work[shard] {
		j.f(shard, j.lo, j.hi)
		p.done <- struct{}{}
	}
}

// Do partitions [0, n) into len(workers) contiguous slices and runs
// f(shard, lo, hi) on each worker, blocking until all return. Shards
// whose slice is empty still run (with lo == hi) so per-shard state
// transitions stay in lockstep. On a closed pool the slices run inline
// on the caller's goroutine, in shard order.
func (p *Pool) Do(n int, f func(shard, lo, hi int)) {
	w := len(p.work)
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		for i := 0; i < w; i++ {
			lo, hi := i*n/w, (i+1)*n/w
			f(i, lo, hi)
		}
		return
	}
	for i := 0; i < w; i++ {
		lo, hi := i*n/w, (i+1)*n/w
		p.work[i] <- job{lo: lo, hi: hi, f: f}
	}
	for i := 0; i < w; i++ {
		<-p.done
	}
}

// Close shuts the workers down and waits for them to exit. It is
// idempotent and must not race a Do in flight.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	for i := range p.work {
		close(p.work[i])
	}
	p.wg.Wait()
}
