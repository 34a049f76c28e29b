package serve

import (
	"errors"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// errEvalPanic answers every still-unanswered item of a flush whose
// evaluation panicked; the handler maps it to 500.
var errEvalPanic = errors.New("serve: internal error evaluating batch")

// batchOut is one request's answer from a batch flush. q is a copy owned
// by the request (the evaluator's row is reused on the next flush).
type batchOut struct {
	action     int
	q          []float64
	generation int
	size       int // batch size this request was evaluated in
	err        error
}

// batchItem is one in-flight request parked in the collector. out is
// buffered so the collector never blocks on a reply, even if the waiting
// handler has been abandoned.
type batchItem struct {
	state    []float64
	includeQ bool
	out      chan batchOut
	answered bool // set by the collector on reply; only it reads it
}

// reply sends the item its one answer.
func (it *batchItem) reply(bo batchOut) {
	it.answered = true
	it.out <- bo
}

// batcher micro-batches one tenant's predict/act evaluations. A batch
// flushes as soon as nothing else can join it: when `max` items are
// parked, or when no other request for the tenant is inside the handler
// (arriving is 0). A request with no peer in flight is therefore evaluated
// at once. Otherwise the batch waits for those arriving requests, for at
// most `window` from its first item. The whole batch runs as one
// qnet.Evaluator.QValuesBatch call. Row i of its result is bit-identical
// to the per-request QValues path, so batching changes latency and
// throughput but never an answer. A single-element flush falls through to
// the per-request path. One collector goroutine per tenant serializes that
// tenant's evaluations — the batch itself is the parallelism. A panic
// during one flush costs that batch a 500 each, never the collector.
type batcher struct {
	svc    *Service
	t      *Tenant
	window time.Duration
	max    int
	items  chan *batchItem
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once

	// arriving counts the tenant's requests that have entered handleEval
	// but not yet reached submit. Every handler path leaves it exactly
	// once: through submit, or on an early exit before it.
	arriving atomic.Int64
}

func newBatcher(svc *Service, t *Tenant, window time.Duration, max int) *batcher {
	return &batcher{
		svc:    svc,
		t:      t,
		window: window,
		max:    max,
		// The channel holds a full batch beyond the one being collected so
		// submitters rarely block on the collector.
		items: make(chan *batchItem, 2*max),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// arrive registers a request entering the tenant's handler; leave
// undoes it for a request that exits before submit. Both are no-ops on a
// nil batcher (batching off).
func (b *batcher) arrive() {
	if b != nil {
		b.arriving.Add(1)
	}
}

func (b *batcher) leave() {
	if b != nil {
		b.arriving.Add(-1)
	}
}

// submit ends the request's arrival, parks it with the collector and
// reports true; after close it reports false and the caller evaluates
// inline — the no-drop guarantee across drain. The arrival ends before
// the item is parked, so the collector never waits for a request that is
// already in its channel.
func (b *batcher) submit(it *batchItem) bool {
	b.arriving.Add(-1)
	select {
	case <-b.stop:
		return false
	default:
	}
	select {
	case b.items <- it:
		return true
	case <-b.stop:
		return false
	}
}

// await blocks for the item's reply. It returns ok=false when the
// collector exited without answering — a submit that raced the stop
// signal can strand its item in the buffer after the drain pass; the
// caller then evaluates inline. Once done is closed no flush can run, so
// a final non-blocking read of out is race-free.
func (b *batcher) await(it *batchItem) (batchOut, bool) {
	select {
	case bo := <-it.out:
		return bo, true
	case <-b.done:
		select {
		case bo := <-it.out:
			return bo, true
		default:
			return batchOut{}, false
		}
	}
}

// close stops the collector, flushes everything already parked, and waits
// for it to exit. Idempotent.
func (b *batcher) close() {
	b.once.Do(func() { close(b.stop) })
	<-b.done
}

func (b *batcher) run() {
	defer close(b.done)
	pending := make([]*batchItem, 0, b.max)
	var timer *time.Timer
	var timerC <-chan time.Time
	flush := func() {
		if timer != nil {
			timer.Stop()
			timer, timerC = nil, nil
		}
		if len(pending) > 0 {
			b.flush(pending)
			pending = pending[:0]
		}
	}
	for {
		select {
		case it := <-b.items:
			pending = append(pending, it)
			// Take whatever else is already parked, up to a full batch.
		take:
			for len(pending) < b.max {
				select {
				case it := <-b.items:
					pending = append(pending, it)
				default:
					break take
				}
			}
			if len(pending) >= b.max || b.arriving.Load() <= 0 {
				flush()
			} else if timer == nil {
				timer = time.NewTimer(b.window)
				timerC = timer.C
			}
		case <-timerC:
			timer, timerC = nil, nil
			flush()
		case <-b.stop:
			// Drain: answer everything already parked, then exit. Later
			// submits see the closed stop channel and evaluate inline.
			for {
				select {
				case it := <-b.items:
					pending = append(pending, it)
				default:
					flush()
					return
				}
			}
		}
	}
}

// flush evaluates one collected batch against a single policy snapshot.
// Items whose state no longer matches the snapshot's input width (e.g. a
// hot-reload changed the observation size mid-batch) are answered
// individually with the same error text the per-request path produces;
// they never poison the batch for the valid items. A panic is recovered:
// it is logged with its stack and counted, every item still unanswered
// gets errEvalPanic, and the evaluator it happened in is dropped rather
// than pooled.
func (b *batcher) flush(pending []*batchItem) {
	size := len(pending)
	p := b.t.policy.Load()
	ev := p.acquire()
	defer func() {
		if r := recover(); r != nil {
			log.Printf("serve: tenant %q: batch evaluation panicked: %v\n%s", b.t.name, r, debug.Stack())
			b.svc.obs.Inc(MetricPanics, 1)
			b.svc.obs.Inc(b.t.mPanics, 1)
			for _, it := range pending {
				if !it.answered {
					it.reply(batchOut{err: errEvalPanic, generation: p.generation, size: size})
				}
			}
			return
		}
		p.release(ev)
	}()
	start := time.Now()

	b.svc.obs.Observe(HistBatchSize, float64(size))
	b.svc.obs.Observe(b.t.hBatch, float64(size))

	valid := pending[:0:0]
	for _, it := range pending {
		if len(it.state) != ev.ObservationSize() {
			// QValues rejects before evaluating; its error text is the
			// per-request contract.
			_, err := ev.QValues(it.state)
			it.reply(batchOut{err: err, generation: p.generation, size: size})
			continue
		}
		valid = append(valid, it)
	}
	if b.svc.testHookFlush != nil {
		b.svc.testHookFlush(b.t)
	}
	switch len(valid) {
	case 0:
	case 1:
		// Single-element fallthrough: the per-request path.
		it := valid[0]
		qs, err := ev.QValues(it.state)
		it.reply(answer(qs, err, it.includeQ, p.generation, size))
	default:
		states := make([][]float64, len(valid))
		for i, it := range valid {
			states[i] = it.state
		}
		qm, err := ev.QValuesBatch(states)
		if err != nil {
			for _, it := range valid {
				it.reply(batchOut{err: err, generation: p.generation, size: size})
			}
			break
		}
		qd := qm.RawData()
		na := ev.ActionCount()
		for i, it := range valid {
			it.reply(answer(qd[i*na:(i+1)*na], nil, it.includeQ, p.generation, size))
		}
	}
	if n := len(valid); n > 0 {
		b.svc.noteEvalMS(msSince(start) / float64(n))
	}
}

// answer builds a batchOut from a Q row, with the same lowest-index
// argmax tie-break as the per-request handler, copying the row only when
// the caller asked for Q values.
func answer(qs []float64, err error, includeQ bool, generation, size int) batchOut {
	if err != nil {
		return batchOut{err: err, generation: generation, size: size}
	}
	out := batchOut{generation: generation, size: size}
	for a := 1; a < len(qs); a++ {
		if qs[a] > qs[out.action] {
			out.action = a
		}
	}
	if includeQ {
		out.q = append([]float64(nil), qs...)
	}
	return out
}
