// Package dp implements the two differential-privacy primitives PrivBayes
// relies on — the Laplace mechanism and the exponential mechanism — plus
// a simple sequential-composition budget accountant.
package dp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Laplace draws one Laplace(0, scale) variate using inverse-CDF sampling.
func Laplace(rng *rand.Rand, scale float64) float64 {
	u := rng.Float64() - 0.5
	if u < 0 {
		return scale * math.Log1p(2*u)
	}
	return -scale * math.Log1p(-2*u)
}

// Exponential samples an index with probability proportional to
// exp(epsilon * score / (2 * sensitivity)), the exponential mechanism of
// McSherry and Talwar (Section 2.1). Scores are shifted by their maximum
// before exponentiation for numerical stability. With epsilon = +Inf the
// call degenerates to argmax, which the harness uses for the NoPrivacy
// reference lines.
func Exponential(rng *rand.Rand, scores []float64, sensitivity, epsilon float64) int {
	if len(scores) == 0 {
		panic("dp: Exponential with no candidates")
	}
	if math.IsInf(epsilon, 1) || sensitivity == 0 {
		best := 0
		for i, s := range scores {
			if s > scores[best] {
				best = i
			}
		}
		return best
	}
	if epsilon <= 0 {
		panic("dp: Exponential requires epsilon > 0")
	}
	maxS := math.Inf(-1)
	for _, s := range scores {
		if s > maxS {
			maxS = s
		}
	}
	factor := epsilon / (2 * sensitivity)
	weights := make([]float64, len(scores))
	var total float64
	for i, s := range scores {
		w := math.Exp(factor * (s - maxS))
		weights[i] = w
		total += w
	}
	u := rng.Float64() * total
	var cum float64
	for i, w := range weights {
		cum += w
		if u < cum {
			return i
		}
	}
	return len(scores) - 1
}

// ErrBudgetExhausted is returned by Accountant.Spend when a request
// exceeds the remaining budget.
var ErrBudgetExhausted = errors.New("dp: privacy budget exhausted")

// Accountant tracks sequential composition of an epsilon budget
// (Theorem 3.2: PrivBayes spends ε1 + ε2 = ε overall).
type Accountant struct {
	total float64
	spent float64
}

// NewAccountant creates an accountant with the given total budget.
func NewAccountant(total float64) *Accountant {
	if total <= 0 {
		panic("dp: accountant requires a positive budget")
	}
	return &Accountant{total: total}
}

// Spend consumes eps from the budget, failing when it would overdraw.
// A tiny relative tolerance absorbs floating-point dust from splitting a
// budget into many equal shares.
func (a *Accountant) Spend(eps float64) error {
	if eps <= 0 {
		return fmt.Errorf("dp: cannot spend non-positive budget %g", eps)
	}
	const tol = 1e-9
	if a.spent+eps > a.total*(1+tol) {
		return fmt.Errorf("%w: spent %g + %g > total %g", ErrBudgetExhausted, a.spent, eps, a.total)
	}
	a.spent += eps
	return nil
}

// Spent returns the budget consumed so far.
func (a *Accountant) Spent() float64 { return a.spent }

// Remaining returns the unused budget (never negative).
func (a *Accountant) Remaining() float64 {
	r := a.total - a.spent
	if r < 0 {
		return 0
	}
	return r
}

// Total returns the overall budget.
func (a *Accountant) Total() float64 { return a.total }
