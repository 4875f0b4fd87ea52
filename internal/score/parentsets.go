package score

// Algorithms 5 and 6 of the paper: generate every maximal parent set —
// a subset of the already-chosen attributes V (optionally generalized
// through taxonomy trees) whose joint domain size stays within a
// θ-usefulness-derived cap τ, such that no eligible strict superset (or
// less-generalized variant) exists.

import (
	"encoding/binary"
	"slices"
	"strconv"

	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
)

// MaximalParentSets implements Algorithm 5: all maximal subsets of the
// attributes V (at raw level) whose domain-size product is at most tau.
// An empty result means even the empty set violates the cap (tau < 1);
// a result containing only the empty set means no attribute fits.
func MaximalParentSets(ds *dataset.Dataset, v []int, tau float64) [][]marginal.Var {
	e := &psEnv{ds: ds, v: v, memo: make(map[psKey][][]marginal.Var)}
	return e.run(0, tau)
}

// MaximalParentSetsHierarchical implements Algorithm 6: like Algorithm 5
// but each attribute may participate at any generalization level of its
// taxonomy tree, and maximality also forbids replacing a member with a
// less-generalized version of itself.
func MaximalParentSetsHierarchical(ds *dataset.Dataset, v []int, tau float64) [][]marginal.Var {
	e := &psEnv{ds: ds, v: v, hier: true, memo: make(map[psKey][][]marginal.Var)}
	return e.run(0, tau)
}

type psEnv struct {
	ds   *dataset.Dataset
	v    []int
	hier bool
	memo map[psKey][][]marginal.Var
}

// psKey identifies one call of run: the position in v, and τ rounded
// to nine significant digits, which decides which calls share a result.
type psKey struct {
	i   int
	tau string
}

// run returns the maximal parent sets drawn from v[i:] under cap tau.
// The recursion follows the paper exactly, with memoization on (i, tau):
// tau only ever shrinks by division with attribute domain sizes, so the
// float key is stable across identical call paths.
func (e *psEnv) run(i int, tau float64) [][]marginal.Var {
	if tau < 1 {
		return nil
	}
	if i == len(e.v) {
		return [][]marginal.Var{{}}
	}
	key := psKey{i, strconv.FormatFloat(tau, 'g', 9, 64)}
	if r, ok := e.memo[key]; ok {
		return r
	}

	x := e.v[i]
	attr := e.ds.Attr(x)
	seen := make(map[string]bool) // the paper's set U, keyed canonically
	var out [][]marginal.Var

	levels := 1
	if e.hier {
		levels = attr.Height()
	}
	// Least-generalized levels first, so a set that fits with a finer
	// version of X suppresses the coarser duplicates (Lines 5-8 of
	// Algorithm 6). With hier == false this is the single Line 5-7 branch
	// of Algorithm 5.
	for lvl := 0; lvl < levels; lvl++ {
		size := attr.SizeAt(lvl)
		if size <= 1 && lvl > 0 {
			break // fully generalized levels carry no information
		}
		for _, z := range e.run(i+1, tau/float64(size)) {
			k := setKey(z)
			if seen[k] {
				continue
			}
			seen[k] = true
			withX := append(append([]marginal.Var(nil), z...), marginal.Var{Attr: x, Level: lvl})
			out = append(out, withX)
		}
	}
	// Sets that exclude X entirely (Line 4 of Algorithm 5 / Lines 9-11 of
	// Algorithm 6) survive only when no variant including X covers them.
	for _, z := range e.run(i+1, tau) {
		if seen[setKey(z)] {
			continue
		}
		out = append(out, z)
	}
	e.memo[key] = out
	return out
}

// setKey is a set's identity in the paper's U: its (attr, level) pairs
// in sorted order, eight bytes each.
func setKey(set []marginal.Var) string {
	sorted := slices.Clone(set)
	sortVars(sorted)
	b := make([]byte, 0, 8*len(sorted))
	for _, v := range sorted {
		b = binary.LittleEndian.AppendUint32(b, uint32(v.Attr))
		b = binary.LittleEndian.AppendUint32(b, uint32(v.Level))
	}
	return string(b)
}

// DomainSize returns the product of the variables' domain sizes.
func DomainSize(ds *dataset.Dataset, set []marginal.Var) float64 {
	size := 1.0
	for _, v := range set {
		size *= float64(v.Size(ds))
	}
	return size
}
