// Package wear implements the EDM SSD wear model (§III.B.1).
//
// The model chains three relations:
//
//	Eq.(1)  E_c = W_c / (N_p · (1 − u_r))
//	Eq.(2)  u   = (u_r − 1) / ln u_r            (classic LFS relation)
//	Eq.(3)  u   = (u_r − 1) / ln u_r + σ        (EDM's skew correction)
//	Eq.(4)  E_c(W_c, u) = W_c / (N_p · (1 − F(u)))
//
// where W_c is the number of host page writes in a window, N_p the pages
// per block, u_r the mean valid-page ratio of GC victim blocks, u the
// disk utilization, and F the inverse of Eq.(3): the u_r predicted for a
// given utilization. The paper sets σ = 0.28 empirically for its
// real-world traces; σ = 0 recovers Eq.(2).
package wear

import (
	"fmt"
	"math"
)

// DefaultSigma is the paper's empirical skew correction for real-world
// workloads (Fig. 3).
const DefaultSigma = 0.28

// UFromUr evaluates the right-hand side of Eq.(2): the disk utilization
// at which a greedy-GC log-structured device exhibits victim valid ratio
// ur. Defined for ur in (0, 1); the limits are 0 at ur→0 and 1 at ur→1.
func UFromUr(ur float64) float64 {
	switch {
	case ur <= 0:
		return 0
	case ur >= 1:
		return 1
	}
	return (ur - 1) / math.Log(ur)
}

// F inverts Eq.(3): it returns the victim valid ratio u_r such that
// (u_r−1)/ln(u_r) + sigma = u. The result is clamped to [0, urMax]
// because utilizations at or below sigma predict an (unattainably good)
// zero valid ratio, and utilizations near 1+sigma saturate.
func F(u, sigma float64) float64 {
	const urMax = 1 - 1e-9
	target := u - sigma
	if target <= 0 {
		return 0
	}
	if target >= 1 {
		return urMax
	}
	// UFromUr is strictly increasing on (0,1); bisect.
	lo, hi := 0.0, 1.0
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if UFromUr(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	ur := (lo + hi) / 2
	if ur > urMax {
		ur = urMax
	}
	return ur
}

// Model bundles the device geometry and skew correction needed to
// evaluate Eq.(4).
type Model struct {
	Np    int     // pages per erase block
	Sigma float64 // skew correction σ of Eq.(3)
}

// NewModel returns a model; np must be positive.
func NewModel(np int, sigma float64) Model {
	if np <= 0 {
		panic(fmt.Sprintf("wear: non-positive pages per block %d", np))
	}
	return Model{Np: np, Sigma: sigma}
}

// EraseCountFromUr evaluates Eq.(1) directly from a measured u_r.
func (m Model) EraseCountFromUr(wc, ur float64) float64 {
	if wc < 0 {
		panic("wear: negative write-page count")
	}
	if ur >= 1 {
		return math.Inf(1)
	}
	if ur < 0 {
		ur = 0
	}
	return wc / (float64(m.Np) * (1 - ur))
}

// EraseCount evaluates Eq.(4): the predicted block erase count for wc
// host page writes at disk utilization u.
func (m Model) EraseCount(wc, u float64) float64 {
	return m.EraseCountFromUr(wc, F(u, m.Sigma))
}

// EraseCountWithUr is EraseCount with a pre-inverted u_r, letting hot
// loops hoist the F(u) bisection (Algorithm 1 holds u fixed for HDF).
func (m Model) EraseCountWithUr(wc, ur float64) float64 {
	return m.EraseCountFromUr(wc, ur)
}

// Ur returns F(u, m.Sigma).
func (m Model) Ur(u float64) float64 { return F(u, m.Sigma) }
