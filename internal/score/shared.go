package score

// The shared-scan scoring engine. A greedy iteration scores far more
// candidates than it has distinct parent sets: Algorithm 2's
// C(|V|,k)·(d−|V|) candidates share C(|V|,k) parent sets, and
// Algorithm 4's maximal parent sets each serve about one child. Here
// ScoreBatch groups the uncached candidates by canonical parent set
// and has the count source count every child joint of a group
// together. A marginal.MemorySource takes the whole batch at once
// (CountBatch): a group whose joints the popcount kernel takes is
// counted and scored as one unit of work, and the other groups share
// one row walk over a prefix trie of their parent lists before they
// are scored in parallel. Other sources count group by group through
// CountTables.
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
// fans out over parent-set groups (<= 0 selects GOMAXPROCS), and bounds
// the workers of a MemorySource's row walk; a group counted through
// CountTables runs at the count source's own parallelism.
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
// when ctx ends it stops dispatching parent-set groups (a row walk
// stops within a 4 096-row chunk), discards the partial batch (nothing
// is memoized) and returns ctx.Err(); a failed count request is
// returned the same way. A nil error guarantees the
// full, bit-identical result vector.
func (s *Scorer) ScoreBatchContext(ctx context.Context, parallelism int, pairs []Pair) ([]float64, error) {
	out := make([]float64, len(pairs))
	groups, works := s.planBatch(pairs, out)
	if len(groups) == 0 {
		return out, nil
	}
	if err := s.scoreGroups(ctx, parallelism, groups); err != nil {
		return nil, err
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

// batchCounter is a count source that counts a whole batch of groups
// at once: marginal.MemorySource, and counts.Provider through it.
type batchCounter interface {
	CountBatch(ctx context.Context, parallelism int, reqs []marginal.CountRequest, use func(i int, tables []*marginal.Table)) error
}

// scoreGroups counts every child joint of the groups and evaluates the
// score function on each, fanning out across up to parallelism workers.
// A batchCounter takes all groups in one call; any other source gets
// one CountTables request per group.
func (s *Scorer) scoreGroups(ctx context.Context, parallelism int, groups []*batchGroup) error {
	score := func(g *batchGroup, joints []*marginal.Table) {
		for j, w := range g.works {
			w.val = s.evaluate(joints[j])
		}
	}
	if bc, ok := s.cs.(batchCounter); ok {
		reqs := make([]marginal.CountRequest, len(groups))
		for i, g := range groups {
			reqs[i] = marginal.CountRequest{Parents: g.parents, Children: g.children}
		}
		return bc.CountBatch(ctx, parallelism, reqs, func(i int, joints []*marginal.Table) { score(groups[i], joints) })
	}
	errs := make([]error, len(groups))
	if err := parallel.ForCtx(ctx, parallel.Workers(parallelism), len(groups), func(i int) {
		joints, err := s.cs.CountTables(groups[i].parents, groups[i].children)
		if err != nil {
			errs[i] = err
			return
		}
		score(groups[i], joints)
	}); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
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
