package qnet

import (
	"fmt"

	"oselmrl/internal/mat"
	"oselmrl/internal/oselm"
)

// Evaluator is an inference-only view of a trained agent's online network
// θ1 for concurrent serving. Unlike SelectAction/GreedyAction it touches
// none of the agent's mutable state (RNG, scratch buffer, counters): each
// Evaluator carries its own work buffers, so any number of Evaluators over
// the same agent may run in parallel — the one rule is that nothing may
// train the underlying model concurrently. Ties in the argmax break
// deterministically toward the lowest action index (serving wants
// reproducible answers; the random tie-break in SelectAction exists only
// to unfreeze untrained training-time agents).
//
// The QValues result is reused between calls on the same Evaluator; copy
// it if it must outlive the next call.
type Evaluator struct {
	cfg   Config
	model *oselm.Model
	hid   []float64 // hidden row, or the state projection
	q     []float64 // one Q value per action

	// Batch scratch for QValuesBatch/BestBatch, lazily grown to the
	// largest batch seen and reused between calls (the serving tier's
	// micro-batcher flushes through one Evaluator at a time). bin and
	// bhid feed the standard output model's GEMMs and stay nil otherwise.
	bin   *mat.Dense // k×In inputs
	bhid  *mat.Dense // k×Hidden activations
	bq    *mat.Dense // k×ActionCount Q values (the QValuesBatch result)
	bact  []int      // BestBatch actions
	bbest []float64  // BestBatch Q values
	bcap  int        // rows the batch backing arrays can hold
}

// NewEvaluator builds an inference view over the agent's current θ1.
// Snapshot semantics: a later Reinitialize or RestoreModels on the agent
// swaps θ1 and is NOT seen by existing Evaluators — build new ones (this
// is exactly what makes checkpoint hot-swap race-free in internal/serve).
func (a *Agent) NewEvaluator() *Evaluator {
	return &Evaluator{
		cfg:   a.cfg,
		model: a.f.theta1,
		hid:   make([]float64, a.cfg.Hidden),
		q:     make([]float64, a.cfg.ActionCount),
	}
}

// ObservationSize returns the expected state vector length.
func (ev *Evaluator) ObservationSize() int { return ev.cfg.ObservationSize }

// ActionCount returns the number of actions.
func (ev *Evaluator) ActionCount() int { return ev.cfg.ActionCount }

// QValues evaluates Q(state, ·) for every action without allocating.
// The returned slice is owned by the Evaluator and reused on the next
// call. The only error is a state-length mismatch.
func (ev *Evaluator) QValues(state []float64) ([]float64, error) {
	if len(state) != ev.cfg.ObservationSize {
		return nil, fmt.Errorf("qnet: state has %d features, model expects %d",
			len(state), ev.cfg.ObservationSize)
	}
	qValuesInto(ev.q, ev.hid, &ev.cfg, ev.model, state)
	return ev.q, nil
}

// qValuesInto writes Q(state, ·) on m into q, with hid as length-Ñ
// scratch: one hidden pass and output pass for the standard output
// model, one ActionValuesInto call for the simplified one.
func qValuesInto(q, hid []float64, cfg *Config, m *oselm.Model, state []float64) {
	if cfg.StandardOutputModel {
		m.HiddenOneInto(hid, state)
		mat.VecMulInto(q, hid, m.Beta)
		return
	}
	m.ActionValuesInto(q, hid, state, cfg.OneHotActions)
}

// growBatch (re)sizes the batch scratch for k rows. Backing arrays only
// ever grow; a smaller batch reuses a prefix of the largest allocation.
func (ev *Evaluator) growBatch(k int) {
	std := ev.cfg.StandardOutputModel
	in := ev.model.InputSize()
	if ev.bq == nil || k > ev.bcap {
		ev.bcap = k
		if std {
			ev.bin = mat.Zeros(k, in)
			ev.bhid = mat.Zeros(k, ev.cfg.Hidden)
		}
		ev.bq = mat.Zeros(k, ev.cfg.ActionCount)
		ev.bact = make([]int, k)
		ev.bbest = make([]float64, k)
		return
	}
	if ev.bq.Rows() == k {
		return
	}
	// Re-view the backing arrays at k rows (slice caps hold bcap rows).
	if std {
		ev.bin = mat.New(k, in, ev.bin.RawData()[:k*in])
		ev.bhid = mat.New(k, ev.cfg.Hidden, ev.bhid.RawData()[:k*ev.cfg.Hidden])
	}
	ev.bq = mat.New(k, ev.cfg.ActionCount, ev.bq.RawData()[:k*ev.cfg.ActionCount])
	ev.bact = ev.bact[:k]
	ev.bbest = ev.bbest[:k]
}

// QValuesBatch evaluates Q(state, ·) for every action of every state.
// For the simplified output model it runs the QValues kernel
// (elm.ActionValuesInto) once per row; for the standard output model the
// hidden and output projections each run as one serial GEMM over
// internal/mat, whose rows accumulate in the same order with the same
// zero-operand skip as the matrix-vector path. Either way row i of the
// result is bit-identical to QValues(states[i]), so batching never
// changes a served answer. The returned matrix is owned by the Evaluator
// and reused on the next batch call; copy rows that must outlive it. The
// only error is a state-length mismatch (reported with the offending
// row).
func (ev *Evaluator) QValuesBatch(states [][]float64) (*mat.Dense, error) {
	for i, st := range states {
		if len(st) != ev.cfg.ObservationSize {
			return nil, fmt.Errorf("qnet: state %d has %d features, model expects %d",
				i, len(st), ev.cfg.ObservationSize)
		}
	}
	k := len(states)
	ev.growBatch(k)
	if k == 0 {
		return ev.bq, nil
	}
	if ev.cfg.StandardOutputModel {
		for i, st := range states {
			ev.bin.SetRow(i, st)
		}
		ev.model.HiddenBatchInto(ev.bhid, ev.bin)
		mat.MulSerialInto(ev.bq, ev.bhid, ev.model.Beta)
		return ev.bq, nil
	}
	qd := ev.bq.RawData()
	na := ev.cfg.ActionCount
	for i, st := range states {
		qValuesInto(qd[i*na:(i+1)*na], ev.hid, &ev.cfg, ev.model, st)
	}
	return ev.bq, nil
}

// BestBatch returns the greedy action and its Q value for every state,
// with the same lowest-index tie-break as Best. The returned slices are
// owned by the Evaluator and reused on the next batch call.
func (ev *Evaluator) BestBatch(states [][]float64) (actions []int, qs []float64, err error) {
	qm, err := ev.QValuesBatch(states)
	if err != nil {
		return nil, nil, err
	}
	qd := qm.RawData()
	na := ev.cfg.ActionCount
	for i := range states {
		row := qd[i*na : (i+1)*na]
		best := 0
		for a := 1; a < na; a++ {
			if row[a] > row[best] {
				best = a
			}
		}
		ev.bact[i], ev.bbest[i] = best, row[best]
	}
	return ev.bact[:len(states)], ev.bbest[:len(states)], nil
}

// Best returns the greedy action and its Q value, breaking ties toward
// the lowest action index.
func (ev *Evaluator) Best(state []float64) (action int, q float64, err error) {
	qs, err := ev.QValues(state)
	if err != nil {
		return 0, 0, err
	}
	action, q = 0, qs[0]
	for a := 1; a < len(qs); a++ {
		if qs[a] > q {
			action, q = a, qs[a]
		}
	}
	return action, q, nil
}
