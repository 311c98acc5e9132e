package resolver

import (
	"sync"
	"sync/atomic"
)

// Parallel resolution: one worker goroutine per simulated RDNS server.
//
// pickServer pins each client to exactly one server, so the cluster's
// query stream is a union of independent per-server substreams. The router
// (caller goroutine) splits the incoming stream by pickServer and feeds each
// server's worker over a bounded channel, preserving per-server FIFO order.
// Every server therefore sees the identical subsequence it would see under
// sequential Resolve, so its LRU cache — and hence the paper's black-box
// cache-hit-ratio measurements — behaves bit-identically.
//
// Queries are routed in batches to amortize channel synchronization:
// a cache hit costs ~100ns, a channel handoff roughly the same, so
// per-query sends would halve throughput.

// streamBatchSize is how many queries the router accumulates per server
// before handing the batch to its worker.
const streamBatchSize = 64

// shardChanCap bounds each server's pending-batch queue. Small enough to
// keep memory bounded, large enough to decouple router and worker bursts.
const shardChanCap = 32

// streamMsg is one unit of work handed to a per-server worker: a batch of
// queries, or — when barrier is non-nil — a synchronization point the worker
// acknowledges and then keeps running.
type streamMsg struct {
	batch   []Query
	barrier *sync.WaitGroup
}

// Stream is a long-lived parallel resolution session: one worker goroutine
// per server, fed by the caller through Submit. A Stream survives across
// logical windows (days) of the query sequence — Barrier drains every
// in-flight query without tearing the workers down, so the caller can
// rotate taps or accumulators at window boundaries and keep submitting.
// All methods must be called from a single goroutine.
type Stream struct {
	c        *Cluster
	chans    []chan streamMsg
	free     []chan []Query // per server: drained batches on their way back to Submit
	pending  [][]Query
	wg       sync.WaitGroup // worker lifetimes
	firstErr atomic.Pointer[error]
	closed   bool
}

// StartStream spins up one worker per server and returns the session. The
// caller must Close it, even on error paths, or the workers leak.
func (c *Cluster) StartStream() *Stream {
	st := &Stream{c: c}
	n := len(c.servers)
	st.chans = make([]chan streamMsg, n)
	st.free = make([]chan []Query, n)
	st.pending = make([][]Query, n)
	for i, s := range c.servers {
		ch := make(chan streamMsg, shardChanCap)
		st.chans[i] = ch
		// As deep as the queue it mirrors: a batch is on ch, with the
		// worker, or here, so a steady stream stops allocating batches.
		st.free[i] = make(chan []Query, shardChanCap)
		st.pending[i] = make([]Query, 0, streamBatchSize)
		st.wg.Add(1)
		go st.worker(s, ch, st.free[i])
	}
	return st
}

func (st *Stream) worker(s *server, ch <-chan streamMsg, free chan<- []Query) {
	defer st.wg.Done()
	for msg := range ch {
		if msg.barrier != nil {
			msg.barrier.Done()
			continue
		}
		for _, q := range msg.batch {
			if _, err := st.c.resolveOn(s, q, nil); err != nil {
				if st.firstErr.Load() == nil {
					e := err
					st.firstErr.CompareAndSwap(nil, &e)
				}
				// Keep consuming so the router never blocks; later
				// queries on this server still resolve (matching
				// sequential behaviour, where the caller decides
				// whether to continue after an error).
			}
		}
		// Hand the batch back, emptied so it pins no names; when the
		// free list is full the slice is simply dropped.
		clear(msg.batch)
		select {
		case free <- msg.batch[:0]:
		default:
		}
	}
}

// Submit routes one query to its server's worker. It acts as the single
// router goroutine: the pending batches are only safe single-threaded,
// which the one-caller contract guarantees.
func (st *Stream) Submit(q Query) {
	i := st.c.pickServer(q.ClientID)
	st.pending[i] = append(st.pending[i], q)
	if len(st.pending[i]) >= streamBatchSize {
		st.handOff(i)
	}
}

// handOff sends server i's pending batch to its worker and starts the next
// one in a slice the worker has finished with, if there is one.
func (st *Stream) handOff(i int) {
	st.chans[i] <- streamMsg{batch: st.pending[i]}
	select {
	case st.pending[i] = <-st.free[i]:
	default:
		st.pending[i] = make([]Query, 0, streamBatchSize)
	}
}

// flush hands every partially-filled batch to its worker.
func (st *Stream) flush() {
	for i, batch := range st.pending {
		if len(batch) > 0 {
			st.handOff(i)
		}
	}
}

// Barrier blocks until every query submitted so far has finished resolving,
// leaving the workers alive and ready for more. While the barrier holds
// (i.e. after it returns and before the next Submit), every worker is idle,
// so the caller may safely swap cluster taps — this is the hook window
// rotation builds on. Returns the first resolution error observed so far;
// the stream remains usable either way.
func (st *Stream) Barrier() error {
	st.flush()
	var wg sync.WaitGroup
	wg.Add(len(st.chans))
	for _, ch := range st.chans {
		ch <- streamMsg{barrier: &wg}
	}
	wg.Wait()
	return st.Err()
}

// Err returns the first resolution error observed so far, without blocking.
func (st *Stream) Err() error {
	if ep := st.firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

// Close flushes remaining batches, joins the workers, and returns the first
// resolution error. Close is idempotent.
func (st *Stream) Close() error {
	if !st.closed {
		st.closed = true
		st.flush()
		for _, ch := range st.chans {
			close(ch)
		}
		st.wg.Wait()
	}
	return st.Err()
}
