// Package dataset provides the column-oriented tabular data model used
// throughout the PrivBayes implementation: attributes with categorical or
// discretized-continuous domains, optional taxonomy trees (generalization
// hierarchies), and compact column storage of encoded records.
package dataset

import (
	"fmt"
	"math"
	"strconv"
)

// Kind classifies an attribute's original domain.
type Kind int

const (
	// Categorical attributes take one of a finite set of labels.
	Categorical Kind = iota
	// Continuous attributes are real-valued and are discretized into
	// equi-width bins before modeling (Section 5.1 of the paper).
	Continuous
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Continuous:
		return "continuous"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attribute describes one column of a dataset. Values are stored as codes
// in [0, Size()). For continuous attributes the codes index equi-width
// bins over [Min, Max].
type Attribute struct {
	Name   string
	Kind   Kind
	Labels []string // one label per code; for continuous attributes, bin descriptions

	// Min and Max bound the original domain of a continuous attribute.
	Min, Max float64

	// Hierarchy is an optional taxonomy tree over the codes. Nil means
	// the attribute has no generalization levels beyond the raw domain.
	Hierarchy *Hierarchy
}

// NewCategorical constructs a categorical attribute with the given labels.
func NewCategorical(name string, labels []string) Attribute {
	return Attribute{Name: name, Kind: Categorical, Labels: append([]string(nil), labels...)}
}

// NewContinuous constructs a continuous attribute discretized into bins
// equi-width bins over [min, max]. A binary taxonomy tree over the bins is
// attached automatically when bins is a power of two greater than one,
// mirroring the paper's treatment of continuous attributes (Figure 2).
func NewContinuous(name string, min, max float64, bins int) Attribute {
	if bins < 1 {
		panic("dataset: continuous attribute needs at least one bin")
	}
	labels := make([]string, bins)
	width := (max - min) / float64(bins)
	for i := range labels {
		lo := min + float64(i)*width
		hi := lo + width
		labels[i] = fmt.Sprintf("(%g, %g]", lo, hi)
	}
	a := Attribute{Name: name, Kind: Continuous, Labels: labels, Min: min, Max: max}
	if bins > 1 && bins&(bins-1) == 0 {
		a.Hierarchy = BinaryHierarchy(bins)
	}
	return a
}

// Size returns the number of codes in the raw (level-0) domain.
func (a *Attribute) Size() int { return len(a.Labels) }

// Bits returns ceil(log2(Size())), the number of binary attributes needed
// to encode this attribute (Section 5.1, binary and Gray encodings).
func (a *Attribute) Bits() int {
	if a.Size() <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(a.Size()))))
}

// Bin maps a raw continuous value into its bin code, clamping to the
// domain bounds.
func (a *Attribute) Bin(v float64) int {
	if a.Kind != Continuous {
		panic("dataset: Bin on non-continuous attribute " + a.Name)
	}
	bins := a.Size()
	if v <= a.Min {
		return 0
	}
	if v >= a.Max {
		return bins - 1
	}
	i := int((v - a.Min) / (a.Max - a.Min) * float64(bins))
	if i >= bins {
		i = bins - 1
	}
	return i
}

// BinCenter returns a representative value for a bin code, used when
// decoding synthetic records back into raw values.
func (a *Attribute) BinCenter(code int) float64 {
	if a.Kind != Continuous {
		panic("dataset: BinCenter on non-continuous attribute " + a.Name)
	}
	width := (a.Max - a.Min) / float64(a.Size())
	return a.Min + (float64(code)+0.5)*width
}

// Label returns the label for a code, or a numeric fallback when the code
// is out of range.
func (a *Attribute) Label(code int) string {
	if code >= 0 && code < len(a.Labels) {
		return a.Labels[code]
	}
	return strconv.Itoa(code)
}

// Text returns the cell text of a code: its label (categorical) or its
// bin center (continuous). It is the one rule for rendering a cell;
// CSV output and core.Model.AppendRowText both use it.
func (a *Attribute) Text(code int) string {
	if a.Kind == Continuous {
		var buf [32]byte
		return string(a.appendBinCenter(buf[:0], code))
	}
	return a.Label(code)
}

// appendBinCenter appends a continuous code's bin center in shortest
// round-trip form, the number a cell renders as in CSV and JSONL alike.
func (a *Attribute) appendBinCenter(dst []byte, code int) []byte {
	return strconv.AppendFloat(dst, a.BinCenter(code), 'g', -1, 64)
}

// Code returns the code for a label, or -1 when the label is unknown.
func (a *Attribute) Code(label string) int {
	for i, l := range a.Labels {
		if l == label {
			return i
		}
	}
	return -1
}

// Height returns the number of generalization levels available for the
// attribute: 1 when it has no hierarchy (only the raw level), otherwise
// the hierarchy height.
func (a *Attribute) Height() int {
	if a.Hierarchy == nil {
		return 1
	}
	return a.Hierarchy.Height()
}

// SizeAt returns the domain size of the attribute generalized to the
// given level. Level 0 is the raw domain.
func (a *Attribute) SizeAt(level int) int {
	if level == 0 || a.Hierarchy == nil {
		return a.Size()
	}
	return a.Hierarchy.SizeAt(level)
}

// Generalize maps a raw code to its generalized code at the given level.
func (a *Attribute) Generalize(level, code int) int {
	if level == 0 || a.Hierarchy == nil {
		return code
	}
	return a.Hierarchy.Generalize(level, code)
}
