// Package score implements the three score functions PrivBayes can use
// inside the exponential mechanism when selecting attribute-parent pairs —
// mutual information I (Section 4.2), the surrogate F for binary domains
// (Sections 4.3–4.4), and the surrogate R for general domains
// (Section 5.3) — together with their sensitivities (Lemma 4.1,
// Theorem 4.5, Theorem 5.3) and the maximal-parent-set generation of
// Algorithms 5 and 6.
package score

import (
	"fmt"
	"math"
	"sync"

	"privbayes/internal/dataset"
	"privbayes/internal/infotheory"
	"privbayes/internal/marginal"
)

// Function selects which score the exponential mechanism optimizes.
type Function int

const (
	// MI is the raw mutual information I(X, Π) (Equation 5).
	MI Function = iota
	// F is the binary-domain surrogate of Section 4.3 with
	// sensitivity 1/n.
	F
	// R is the general-domain surrogate of Section 5.3 with
	// sensitivity 3/n + 2/n².
	R
)

// String names the function as in the paper.
func (f Function) String() string {
	switch f {
	case MI:
		return "I"
	case F:
		return "F"
	case R:
		return "R"
	default:
		return fmt.Sprintf("Function(%d)", int(f))
	}
}

// SensitivityI returns S(I) per Lemma 4.1. binary reports whether X or Π
// is guaranteed binary for every candidate pair.
func SensitivityI(n int, binary bool) float64 {
	fn := float64(n)
	if n <= 1 {
		return 1
	}
	if binary {
		return math.Log2(fn)/fn + (fn-1)/fn*math.Log2(fn/(fn-1))
	}
	return 2/fn*math.Log2((fn+1)/2) + (fn-1)/fn*math.Log2((fn+1)/(fn-1))
}

// SensitivityF returns S(F) = 1/n (Theorem 4.5).
func SensitivityF(n int) float64 { return 1 / float64(n) }

// SensitivityR returns the bound S(R) ≤ 3/n + 2/n² (Theorem 5.3).
func SensitivityR(n int) float64 {
	fn := float64(n)
	return 3/fn + 2/(fn*fn)
}

// Scorer evaluates one score function over a count source, memoizing
// results by canonical (X, Π) identity. Scores depend only on the data,
// so a scorer can be reused across privacy budgets and greedy
// iterations — parent sets eligible at iteration i remain candidates at
// every later iteration, which makes the memo the dominant cost saver
// of the harness. Batch evaluation additionally counts all children of
// a parent set in one source request (see shared.go).
type Scorer struct {
	Fn Function
	cs marginal.CountSource
	n  int

	// ladder normalizes MI and R joints: it reproduces the serial
	// Materialize accumulation bit for bit, so scores are the same at
	// every parallelism and from every source.
	ladder *marginal.Ladder

	mu   sync.Mutex
	memo *marginal.VarLRU[float64]

	allBinary bool
}

// NewScorer builds a scorer for the dataset with an unbounded memo.
// Using F on a dataset with any non-binary attribute panics at Score
// time, matching the paper's NP-hardness result for general-domain F
// (Theorem 5.1).
func NewScorer(fn Function, ds *dataset.Dataset) *Scorer {
	return NewScorerSized(fn, ds, 0)
}

// NewScorerSized builds a scorer over the in-memory dataset (a serial
// marginal.MemorySource; batches still fan out over parent sets) whose
// memo holds at most cacheSize scored pairs, evicting
// least-recently-used entries beyond it — bounding the memory of
// long-running services that share one Scorer across many Fit calls.
// cacheSize <= 0 means unbounded (NewScorer). Eviction only ever costs
// a recompute: scores are pure functions of the data, so results are
// unaffected.
func NewScorerSized(fn Function, ds *dataset.Dataset, cacheSize int) *Scorer {
	return NewScorerCounts(fn, ds.Attrs(), marginal.NewMemorySource(ds, 1), cacheSize)
}

// NewScorerCounts builds a scorer that requests every joint from cs as
// an exact integer count table. Equal counts give bit-identical scores,
// so every source over the same rows — in memory, scanned out of core,
// or a maintained store — yields the same values. cacheSize bounds the
// memo as in NewScorerSized.
func NewScorerCounts(fn Function, attrs []dataset.Attribute, cs marginal.CountSource, cacheSize int) *Scorer {
	all := true
	for _, a := range attrs {
		if a.Size() != 2 {
			all = false
			break
		}
	}
	return &Scorer{
		Fn:        fn,
		cs:        cs,
		n:         cs.Rows(),
		ladder:    marginal.NewLadder(cs.Rows()),
		memo:      marginal.NewVarLRU[float64](cacheSize),
		allBinary: all,
	}
}

// CountSource returns the count source the scorer reads — pipelines
// use it to verify a shared scorer matches the fit's data source.
func (s *Scorer) CountSource() marginal.CountSource { return s.cs }

// Sensitivity returns the sensitivity of the configured score function on
// this dataset, for use as the exponential-mechanism scaling factor.
func (s *Scorer) Sensitivity() float64 {
	switch s.Fn {
	case MI:
		return SensitivityI(s.n, s.allBinary)
	case F:
		return SensitivityF(s.n)
	case R:
		return SensitivityR(s.n)
	default:
		panic("score: unknown function")
	}
}

// Score evaluates the configured function on the AP pair (x, parents)
// as a one-pair batch, memoizing the result. Parents are treated
// jointly; their order does not affect the value. A count-source error
// panics, as in ScoreBatch.
func (s *Scorer) Score(x marginal.Var, parents []marginal.Var) float64 {
	return s.ScoreBatch(1, []Pair{{X: x, Parents: parents}})[0]
}

// Pair is one candidate AP pair for batch scoring.
type Pair struct {
	X       marginal.Var
	Parents []marginal.Var
}

// CacheSize reports the number of pairs currently memoized (at most the
// ScorerCacheSize bound when one is set).
func (s *Scorer) CacheSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memo.Len()
}

// evaluate computes the score from one exact count table laid out
// [Π..., X]. F reads the counts directly; MI and R read probabilities
// normalized through the ladder.
func (s *Scorer) evaluate(joint *marginal.Table) float64 {
	switch s.Fn {
	case F:
		for _, d := range joint.Dims {
			if d != 2 {
				panic("score: F requires binary attributes")
			}
		}
		return FScoreFromCounts(joint.P, s.n)
	case MI:
		s.ladder.Apply(joint)
		return infotheory.MutualInformationSplit(joint)
	case R:
		s.ladder.Apply(joint)
		return RScore(joint)
	default:
		panic("score: unknown function")
	}
}

// RScore computes R(X, Π) = ½‖Pr[X,Π] − Pr[X]Pr[Π]‖₁ (Equation 11) from
// a joint laid out as [Π..., X].
func RScore(joint *marginal.Table) float64 {
	indep := infotheory.IndependentProduct(joint)
	return marginal.L1(joint, indep) / 2
}
