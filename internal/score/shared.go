package score

// The shared-scan scoring engine. A greedy iteration of Algorithm 2
// scores C(|V|,k)·(d−|V|) candidates that share only C(|V|,k) distinct
// parent sets; counting each candidate's joint on its own rescans all n
// rows per candidate. Here ScoreBatch groups the uncached candidates by
// canonical parent set and asks the count source for every child joint
// of a group in one CountTables call — for the in-memory source, one
// parent-configuration index plus one fused O(n) pass (or popcounts)
// for all children — cutting per-iteration scoring from O(#cand·n·k) to
// O(#Π·n·k + #cand·n).
//
// Joint counts are exact integers whatever the source or parallelism,
// and MI and R scale them once by 1/n, so every score sees byte-equal
// inputs: the learned network is identical at every Parallelism
// setting.

import (
	"context"
	"slices"

	"privbayes/internal/marginal"
	"privbayes/internal/parallel"
)

// batchWork is one distinct uncached pair in a batch: its canonical
// identity and every output slot awaiting the value.
type batchWork struct {
	canon   []marginal.Var // [sorted parents..., x]
	key     uint64
	outIdxs []int
	val     float64
}

// batchGroup collects the works sharing one parent set. parents keeps
// the first-seen order, which fixes the joints' layout — part of the
// bit-identity contract; children[j] is works[j]'s child.
type batchGroup struct {
	parents  []marginal.Var
	key      uint64 // hash of the canonical (sorted) parent set
	canon    []marginal.Var
	children []marginal.Var
	works    []*batchWork
}

// ScoreBatch evaluates every candidate pair through the shared-scan
// engine and returns the results in input order. Values are bit-identical
// to sequential Score calls at any parallelism — see the package note
// above — and every result lands in the memo, so a batch also serves as
// a parallel precompute for a scorer shared across runs. Parallelism
// fans out over parent-set groups (<= 0 selects GOMAXPROCS); counting
// within a group runs at the count source's own parallelism.
func (s *Scorer) ScoreBatch(parallelism int, pairs []Pair) []float64 {
	out, err := s.ScoreBatchContext(context.Background(), parallelism, pairs)
	if err != nil {
		// Only a count-source error reaches here: the background
		// context never ends.
		panic(err)
	}
	return out
}

// ScoreBatchContext is ScoreBatch with cancellation and source errors:
// when ctx ends it stops dispatching parent-set groups, discards the
// partial batch (nothing is memoized) and returns ctx.Err(); a failed
// count request is returned the same way. A nil error guarantees the
// full, bit-identical result vector.
func (s *Scorer) ScoreBatchContext(ctx context.Context, parallelism int, pairs []Pair) ([]float64, error) {
	out := make([]float64, len(pairs))
	groups, works := s.planBatch(pairs, out)
	if len(groups) == 0 {
		return out, nil
	}
	groupErrs := make([]error, len(groups))
	if err := parallel.ForCtx(ctx, parallel.Workers(parallelism), len(groups), func(gi int) {
		groupErrs[gi] = s.scoreGroup(groups[gi])
	}); err != nil {
		return nil, err
	}
	for _, err := range groupErrs {
		if err != nil {
			return nil, err
		}
	}

	s.mu.Lock()
	for _, w := range works {
		s.memo.PutIfAbsent(w.key, w.canon, w.val)
	}
	s.mu.Unlock()
	for _, w := range works {
		for _, i := range w.outIdxs {
			out[i] = w.val
		}
	}
	return out, nil
}

// planBatch resolves memo hits into out and partitions the remaining
// distinct pairs into parent-set groups, preserving first-seen order for
// groups and works so the whole plan is independent of parallelism.
func (s *Scorer) planBatch(pairs []Pair, out []float64) ([]*batchGroup, []*batchWork) {
	var groups []*batchGroup
	var works []*batchWork
	workByKey := make(map[uint64][]*batchWork)
	groupByKey := make(map[uint64][]*batchGroup)

	s.mu.Lock()
	defer s.mu.Unlock()
	for i, p := range pairs {
		canon := canonPair(p.X, p.Parents)
		key := marginal.VarsKey(canon)
		if v, ok := s.memo.Get(key, canon); ok {
			out[i] = v
			continue
		}
		var w *batchWork
		for _, cand := range workByKey[key] {
			if slices.Equal(cand.canon, canon) {
				w = cand
				break
			}
		}
		if w != nil {
			w.outIdxs = append(w.outIdxs, i)
			continue
		}
		w = &batchWork{canon: canon, key: key, outIdxs: []int{i}}
		workByKey[key] = append(workByKey[key], w)
		works = append(works, w)

		pcanon := canon[:len(canon)-1]
		pkey := marginal.VarsKey(pcanon)
		var g *batchGroup
		for _, cand := range groupByKey[pkey] {
			if slices.Equal(cand.canon, pcanon) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &batchGroup{
				parents: append([]marginal.Var(nil), p.Parents...),
				key:     pkey,
				canon:   pcanon,
			}
			groupByKey[pkey] = append(groupByKey[pkey], g)
			groups = append(groups, g)
		}
		g.children = append(g.children, p.X)
		g.works = append(g.works, w)
	}
	return groups, works
}

// scoreGroup counts every child joint of one parent-set group in one
// source request and evaluates the score function on each.
func (s *Scorer) scoreGroup(g *batchGroup) error {
	joints, err := s.cs.CountTables(g.parents, g.children)
	if err != nil {
		return err
	}
	for j, w := range g.works {
		w.val = s.evaluate(joints[j])
	}
	return nil
}

// Indexes returns the parent-index cache of the scorer's source when it
// keeps one (marginal.MemorySource), so callers can read its hit and
// miss counters. Other sources keep no indexes and get an empty cache.
func (s *Scorer) Indexes() *marginal.IndexCache {
	if ic, ok := s.cs.(interface{ Indexes() *marginal.IndexCache }); ok {
		return ic.Indexes()
	}
	return marginal.NewIndexCache(0)
}
