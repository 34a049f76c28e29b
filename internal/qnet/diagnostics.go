package qnet

import "oselmrl/internal/mat"

// Diagnostics is a point-in-time stability snapshot of the agent — the
// quantities §3.3/§4.3 reason about when explaining why plain OS-ELM
// degrades and the regularized variants do not.
type Diagnostics struct {
	// Episode stamps when the snapshot was taken (caller-provided).
	Episode int
	// BetaSigmaMax is σmax(β): the network's Lipschitz bound after
	// spectral normalization of α.
	BetaSigmaMax float64
	// BetaFrobenius is ‖β‖_F, the quantity L2 regularization suppresses
	// (paper Relation 13: σmax ≤ ‖·‖_F).
	BetaFrobenius float64
	// AlphaSigmaMax is σmax(α) (1.0 for the Lipschitz variants).
	AlphaSigmaMax float64
	// LipschitzBound is σmax(α)·Lip(G)·σmax(β).
	LipschitzBound float64
	// GainTrace is trace(P)/Ñ, the mean eigenvalue of P — the effective
	// learning rate, which pure RLS drives to zero (the stall the reset
	// rule and the forgetting extension both address).
	GainTrace float64
	// PMaxAbs is max|Pᵢⱼ|; plain OS-ELM's near-singular initial training
	// blows this up along dead-feature directions.
	PMaxAbs float64
	// QProbeMax is max|Q(s, a)| over the provided probe states — the
	// outliers that Q-value clipping defends against.
	QProbeMax float64
}

// Snapshot computes diagnostics for the online network θ1. probeStates may
// be nil; when provided, QProbeMax scans |Q| over them and every action.
func (a *Agent) Snapshot(episode int, probeStates [][]float64) Diagnostics {
	d := Diagnostics{
		Episode:       episode,
		BetaSigmaMax:  a.f.theta1.BetaSigmaMax(),
		BetaFrobenius: a.f.theta1.Beta.FrobeniusNorm(),
		AlphaSigmaMax: mat.LargestSingularValue(a.f.theta1.Alpha, 200, nil),
	}
	d.LipschitzBound = d.AlphaSigmaMax * a.cfg.Activation.Lipschitz * d.BetaSigmaMax
	if a.f.theta1.P != nil {
		d.GainTrace = a.f.theta1.GainTrace()
		d.PMaxAbs = a.f.theta1.P.MaxAbs()
	}
	for _, s := range probeStates {
		a.f.QValues(a.qs, s, false)
		for _, q := range a.qs {
			if q < 0 {
				q = -q
			}
			if q > d.QProbeMax {
				d.QProbeMax = q
			}
		}
	}
	return d
}
