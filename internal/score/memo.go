package score

// The score memo keys: every AP pair is reduced to the canonical
// variable list [sorted parents..., X] and hashed to a compact uint64
// (marginal.VarsKey), replacing the original string-keyed map. The memo
// itself is a marginal.VarLRU — bounded when ScorerCacheSize is set, so
// long-running services sharing one Scorer across many Fit calls no
// longer grow without limit — which verifies the stored variable list on
// every lookup, so hash collisions can never return a value for the
// wrong pair.

import "privbayes/internal/marginal"

// canonPair returns the canonical variable list [sorted parents..., x]
// identifying an AP pair: parent order never affects a score's value, so
// the memo and the batch grouping both key on this form. Sorting is an
// insertion sort — parent sets hold at most a handful of variables.
func canonPair(x marginal.Var, parents []marginal.Var) []marginal.Var {
	c := make([]marginal.Var, len(parents)+1)
	copy(c, parents)
	sortVars(c[:len(parents)])
	c[len(parents)] = x
	return c
}

func sortVars(vs []marginal.Var) {
	for i := 1; i < len(vs); i++ {
		v := vs[i]
		j := i - 1
		for j >= 0 && varLess(v, vs[j]) {
			vs[j+1] = vs[j]
			j--
		}
		vs[j+1] = v
	}
}

func varLess(a, b marginal.Var) bool {
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	return a.Level < b.Level
}
