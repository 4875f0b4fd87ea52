// Package dp implements the two differential-privacy primitives PrivBayes
// relies on: the Laplace mechanism and the exponential mechanism. A fit
// splits its ε between them by sequential composition (ε₁ + ε₂ = ε,
// Theorem 3.2) in internal/core; the ε each dataset spends across fits
// is metered by internal/accountant.
package dp

import (
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
