// Package infer is the exact query engine over fitted PrivBayes
// models: variable-elimination inference that answers marginal,
// conditional and probability queries straight from the network's
// conditional probability tables, in microseconds, without sampling a
// single synthetic row.
//
// The engine treats inference as relational algebra over conditional
// tables — every CPT is a dense relation keyed by (parents..., child)
// with a probability measure, and a query compiles to bucket
// elimination: joins (factor products), selections (evidence masks)
// and aggregating projections (sum-out). Irrelevant CPTs — those not
// ancestral to a target or evidence attribute — sum to 1 and are
// pruned; each attribute to eliminate is picked greedily by minimum
// bucket-product size, its bucket's factors are joined, and the
// attribute is aggregated away under its evidence mask. The largest
// relation ever materialized is the largest bucket product of that
// order — bounded by the induced width of the pruned network, never
// the full joint. A cell cap bounds every product and reports
// ErrTooLarge when a query would exceed it, in which case callers fall
// back to sampling.
//
// The elimination order is a deterministic function of the query and
// the network — never of the worker count or the machine — and factor
// products are elementwise writes, so results are byte-identical
// across runs and at every parallelism setting.
package infer

import (
	"context"
	"fmt"

	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
	"privbayes/internal/parallel"
)

// DefaultMaxCells caps the intermediate factor when Options.MaxCells is
// unset. It equals the historical core.DefaultInferenceCells bound.
const DefaultMaxCells = 1 << 22

// Parent is one parent of a CPT, possibly at a generalized taxonomy
// level (the paper's hierarchical encoding).
type Parent struct {
	Attr  int
	Level int
}

// CPT is one conditional probability table Pr[X | Π] of the network, in
// topological order: every parent's attribute is the child of an
// earlier CPT.
type CPT struct {
	X       int
	Parents []Parent
	Cond    *marginal.Conditional
}

// Target is one result axis of a query: an attribute, optionally rolled
// up to a taxonomy level > 0.
type Target struct {
	Attr  int
	Level int
}

// Evidence restricts one attribute to a set of raw codes: Allowed[c]
// reports whether code c is in the evidence set. An equality predicate
// allows one code; set membership allows several. Evidence attributes
// are summed out under the mask, never returned as result axes.
type Evidence struct {
	Attr    int
	Allowed []bool
}

// Options bound one engine run.
type Options struct {
	// MaxCells caps every intermediate factor; <= 0 selects
	// DefaultMaxCells.
	MaxCells int
	// Parallelism bounds the workers fanning out large factor products;
	// <= 0 selects GOMAXPROCS. Any setting produces bit-identical
	// results — cell products are independent writes.
	Parallelism int
	// Stats, when non-nil, receives the work counters of the run (factor
	// products, peak cells). Purely observational: filling it cannot
	// change the answer or the elimination order.
	Stats *Stats
}

// Engine answers exact queries over one fitted model's CPTs. An Engine
// is an immutable view of the model and is safe for concurrent use.
type Engine struct {
	attrs []dataset.Attribute
	cpts  []CPT
}

// NewEngine wraps a network's CPTs (in topological order) and its
// schema. The slices are retained, not copied.
func NewEngine(attrs []dataset.Attribute, cpts []CPT) *Engine {
	return &Engine{attrs: attrs, cpts: cpts}
}

// Joint computes the exact distribution P(targets..., evidence): the
// marginal over the target attributes with every evidence attribute
// restricted to its allowed set and summed out. With no evidence the
// result sums to 1; with evidence it sums to the probability of the
// evidence, so callers obtain conditionals by normalizing and scalar
// probabilities by passing no targets (the result is then a single
// cell holding P(evidence)).
//
// ctx is checked between factor operations and between the chunks of a
// parallel product, so a cancelled query stops within one CPT product.
// Targets and evidence must not mention the same attribute; evidence
// attributes must be distinct.
func (e *Engine) Joint(ctx context.Context, targets []Target, evidence []Evidence, opt Options) (*marginal.Table, error) {
	maxCells := opt.MaxCells
	if maxCells <= 0 {
		maxCells = DefaultMaxCells
	}
	workers := 1
	if opt.Parallelism != 1 {
		workers = parallel.Workers(opt.Parallelism)
	}

	want := make(map[int]bool, len(targets))
	for _, t := range targets {
		if t.Attr < 0 || t.Attr >= len(e.attrs) {
			return nil, fmt.Errorf("infer: attribute %d out of range", t.Attr)
		}
		if t.Level < 0 || t.Level >= e.attrs[t.Attr].Height() {
			return nil, fmt.Errorf("infer: attribute %d has no taxonomy level %d", t.Attr, t.Level)
		}
		want[t.Attr] = true
	}
	masks := make(map[int][]bool, len(evidence))
	for _, ev := range evidence {
		if ev.Attr < 0 || ev.Attr >= len(e.attrs) {
			return nil, fmt.Errorf("infer: attribute %d out of range", ev.Attr)
		}
		if want[ev.Attr] {
			return nil, fmt.Errorf("infer: attribute %d is both a target and evidence", ev.Attr)
		}
		if _, dup := masks[ev.Attr]; dup {
			return nil, fmt.Errorf("infer: attribute %d has two evidence predicates", ev.Attr)
		}
		if len(ev.Allowed) != e.attrs[ev.Attr].Size() {
			return nil, fmt.Errorf("infer: evidence mask for attribute %d has %d entries, domain has %d",
				ev.Attr, len(ev.Allowed), e.attrs[ev.Attr].Size())
		}
		masks[ev.Attr] = ev.Allowed
	}

	// Relevance: only ancestors of the query (targets and evidence)
	// influence the answer; every other CPT sums to 1 and is skipped.
	relevant := make(map[int]bool, len(e.attrs))
	for i := len(e.cpts) - 1; i >= 0; i-- {
		c := e.cpts[i]
		if want[c.X] || masks[c.X] != nil || relevant[c.X] {
			relevant[c.X] = true
			for _, par := range c.Parents {
				relevant[par.Attr] = true
			}
		}
	}
	// One factor per relevant CPT; the slice order (network order) is
	// the deterministic tie-break for every product below.
	factors := make([]*factor, 0, len(e.cpts))
	for _, c := range e.cpts {
		if !relevant[c.X] {
			continue
		}
		f, err := cptFactor(e.attrs, c, maxCells)
		if err != nil {
			return nil, err
		}
		opt.Stats.noteFactor(f)
		factors = append(factors, f)
	}

	// Bucket elimination over every relevant non-target attribute,
	// greedy min-weight order: at each step eliminate the attribute
	// whose bucket product (the join of all factors mentioning it) is
	// smallest, ties to the lowest attribute index. The order depends
	// only on the query and the network, so results are deterministic.
	elim := make([]int, 0, len(relevant))
	for a := range e.attrs {
		if relevant[a] && !want[a] {
			elim = append(elim, a)
		}
	}
	for len(elim) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		best, bestCost := -1, 0
		for _, v := range elim {
			cost := bucketCells(factors, v)
			if best < 0 || cost < bestCost {
				best, bestCost = v, cost
			}
		}
		var err error
		if factors, err = eliminate(ctx, factors, best, masks[best], maxCells, workers, opt.Stats); err != nil {
			return nil, err
		}
		next := elim[:0]
		for _, v := range elim {
			if v != best {
				next = append(next, v)
			}
		}
		elim = next
	}

	joint := scalarFactor()
	for _, f := range factors {
		var err error
		if joint, err = joint.multiply(ctx, f, maxCells, workers); err != nil {
			return nil, err
		}
		opt.Stats.noteProduct(joint)
	}
	return joint.project(e.attrs, targets)
}

// bucketCells sizes attribute v's bucket product: the cell count of the
// join of every factor whose scope mentions v.
func bucketCells(factors []*factor, v int) int {
	seen := map[int]int{}
	for _, f := range factors {
		if f.indexOf(v) < 0 {
			continue
		}
		for i, a := range f.attrs {
			seen[a] = f.dims[i]
		}
	}
	cells := 1
	for _, d := range seen {
		cells *= d
	}
	return cells
}

// eliminate sums attribute v out of the factor list: its bucket —
// every factor mentioning v, joined in list order — is replaced by the
// bucket product with v aggregated away under mask.
func eliminate(ctx context.Context, factors []*factor, v int, mask []bool, maxCells, workers int, stats *Stats) ([]*factor, error) {
	rest := make([]*factor, 0, len(factors))
	var prod *factor
	for _, f := range factors {
		if f.indexOf(v) < 0 {
			rest = append(rest, f)
			continue
		}
		if prod == nil {
			prod = f
			continue
		}
		var err error
		if prod, err = prod.multiply(ctx, f, maxCells, workers); err != nil {
			return nil, err
		}
		stats.noteProduct(prod)
	}
	if prod == nil {
		return rest, nil
	}
	return append(rest, prod.sumOut(v, mask)), nil
}
