// Package privbayes is a production-quality Go implementation of
// PrivBayes (Zhang, Cormode, Procopiuc, Srivastava, Xiao — SIGMOD 2014 /
// TODS 2017): differentially private release of high-dimensional tabular
// data via Bayesian networks.
//
// Given a sensitive dataset, PrivBayes (1) learns a low-degree Bayesian
// network with the exponential mechanism using low-sensitivity surrogate
// score functions, (2) perturbs the network's low-dimensional marginals
// with the Laplace mechanism, and (3) samples a synthetic dataset from
// the noisy model. The released data satisfies ε-differential privacy
// end to end and supports arbitrary downstream workloads.
//
// Quick start (the context-first v2 API):
//
//	attrs := []privbayes.Attribute{
//		privbayes.NewCategorical("color", []string{"red", "green", "blue"}),
//		privbayes.NewContinuous("age", 0, 100, 16),
//	}
//	ds := privbayes.NewDataset(attrs)
//	// ... ds.Append(record) for each row ...
//	model, err := privbayes.Fit(ctx, ds,
//		privbayes.WithEpsilon(1.0),
//		privbayes.WithSeed(1), // omit for a crypto-drawn seed
//	)
//	// Stream any number of synthetic rows; no further privacy cost.
//	for row, err := range model.Synthesize(ctx, 100_000, privbayes.SynthSeed(2)) {
//		...
//	}
//
// Every entry point takes a context.Context and cancels promptly;
// randomness comes from immutable seed-based Sources rather than a
// shared *rand.Rand; options are functional (WithEpsilon, WithBeta,
// WithScore, WithParallelism, WithProgress, ...). Fitter bundles
// options for reuse, and Session additionally shares score caches
// across repeated fits of one dataset. Parallelism only sets speed: for
// a fixed seed, fits, samples and streams are byte-identical at every
// parallelism.
//
// The exported types alias the internal implementation packages, so the
// whole pipeline — datasets, taxonomy hierarchies, fitted models — is
// usable from this single import.
package privbayes

import (
	"io"

	"privbayes/internal/core"
	"privbayes/internal/dataset"
)

// Dataset is a column-oriented table of encoded records.
type Dataset = dataset.Dataset

// Attribute describes one column: a categorical label set or a
// discretized continuous range, optionally with a taxonomy tree.
type Attribute = dataset.Attribute

// Hierarchy is a taxonomy tree over an attribute's values, enabling the
// hierarchical encoding of Section 5.1.
type Hierarchy = dataset.Hierarchy

// Kind classifies an attribute's original domain.
type Kind = dataset.Kind

// Attribute kinds.
const (
	Categorical = dataset.Categorical
	Continuous  = dataset.Continuous
)

// Model is a fitted PrivBayes model: the private Bayesian network plus
// its noisy conditional distributions. Sampling from a Model incurs no
// further privacy cost, whether materialized (SampleP, SampleContext)
// or streamed (Synthesize, SynthesizeTo).
type Model = core.Model

// ModelInfo is a serializable summary of a fitted model — schema,
// network structure, degree, score function and size — as returned by
// Model.Info. Registries and inspection endpoints (see privbayesd's
// GET /models) expose it directly; everything in it derives from the
// ε-DP release, so surfacing it costs no privacy.
type ModelInfo = core.ModelInfo

// AttrInfo summarizes one schema attribute within a ModelInfo.
type AttrInfo = core.AttrInfo

// PairInfo renders one attribute-parent pair of the network by name.
type PairInfo = core.PairInfo

// ErrInvalidModel tags every rejection of a model artifact by
// LoadModel: malformed JSON, a missing or unsupported format version,
// or structural validation failure. Services accepting uploaded
// artifacts branch on errors.Is(err, ErrInvalidModel) to separate bad
// input from internal faults.
var ErrInvalidModel = core.ErrInvalidModel

// NewDataset creates an empty dataset with the given schema.
func NewDataset(attrs []Attribute) *Dataset { return dataset.New(attrs) }

// NewCategorical constructs a categorical attribute.
func NewCategorical(name string, labels []string) Attribute {
	return dataset.NewCategorical(name, labels)
}

// NewContinuous constructs a continuous attribute discretized into
// equi-width bins.
func NewContinuous(name string, min, max float64, bins int) Attribute {
	return dataset.NewContinuous(name, min, max, bins)
}

// NewHierarchy builds a taxonomy tree from per-level generalization
// maps; see dataset.NewHierarchy.
func NewHierarchy(rawSize int, maps ...[]int) *Hierarchy {
	return dataset.NewHierarchy(rawSize, maps...)
}

// SaveModel persists a fitted model as JSON. Only the noisy model is
// written — never the sensitive data — so the stored artifact carries
// exactly the ε-DP release. epsilon is recorded as metadata.
func SaveModel(w io.Writer, m *Model, epsilon float64) error {
	return m.WriteJSON(w, epsilon)
}

// LoadModel reads a model persisted by SaveModel and returns it with
// the recorded ε. The artifact is fully revalidated — format version,
// network structure, conditional-table dimensions and probability
// vectors — so it is safe to call on untrusted input: malformed
// documents return an error wrapping ErrInvalidModel, never a panic.
func LoadModel(r io.Reader) (*Model, float64, error) {
	return core.ReadModelJSON(r)
}
