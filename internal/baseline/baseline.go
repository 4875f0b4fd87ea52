// Package baseline implements the count-query competitors of
// Section 6.5: Laplace (noise straight into each α-way marginal),
// Fourier (FourierEncoded: Barak et al. 2007, noisy Walsh–Hadamard
// coefficients), Contingency (noisy full-domain table projected onto
// marginals), MWEM (Hardt, Ligett, McSherry 2012) and the trivial
// Uniform baseline.
// Every method exposes the same MarginalSource interface the workload
// evaluator consumes. All methods apply the paper's consistency
// post-processing: non-negativity then normalization.
package baseline

import (
	"fmt"

	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
)

// MarginalSource serves an estimated marginal distribution over a set of
// attribute indices.
type MarginalSource interface {
	// Marginal returns the estimated joint distribution of the given
	// attributes (raw level), normalized to total mass 1.
	Marginal(attrs []int) *marginal.Table
}

// Uniform answers every marginal query with the uniform distribution —
// the paper's sanity-check baseline.
type Uniform struct {
	DS *dataset.Dataset
}

// Marginal implements MarginalSource.
func (u *Uniform) Marginal(attrs []int) *marginal.Table {
	t := marginal.NewTable(u.DS, rawVars(attrs))
	v := 1 / float64(t.Cells())
	for i := range t.P {
		t.P[i] = v
	}
	return t
}

// Dataset adapts any dataset (typically PrivBayes' synthetic output) to
// a MarginalSource by materializing empirical marginals.
type Dataset struct {
	DS *dataset.Dataset
}

// Marginal implements MarginalSource.
func (d *Dataset) Marginal(attrs []int) *marginal.Table {
	return marginal.Materialize(d.DS, rawVars(attrs))
}

func rawVars(attrs []int) []marginal.Var {
	vars := make([]marginal.Var, len(attrs))
	for i, a := range attrs {
		vars[i] = marginal.Var{Attr: a}
	}
	return vars
}

func keyOf(attrs []int) string { return fmt.Sprint(attrs) }

// Subsets enumerates all size-alpha subsets of {0, …, d−1} — the query
// set Qα of Section 6.1.
func Subsets(d, alpha int) [][]int {
	var out [][]int
	cur := make([]int, 0, alpha)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == alpha {
			out = append(out, append([]int(nil), cur...))
			return
		}
		need := alpha - len(cur)
		for i := start; i <= d-need; i++ {
			cur = append(cur, i)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}
