package dataset

import (
	"fmt"
	"math"
)

// AttrSpec is the wire form of one schema attribute: the "schema" field
// of privbayesd's POST /fit, the body of POST /datasets/{id}, and the
// schema record of a curator row log. Categorical attributes list their
// labels; continuous attributes give a range and a bin count.
type AttrSpec struct {
	Name string `json:"name"`
	// Kind is "categorical" or "continuous".
	Kind   string   `json:"kind"`
	Labels []string `json:"labels,omitempty"`
	Min    float64  `json:"min,omitempty"`
	Max    float64  `json:"max,omitempty"`
	Bins   int      `json:"bins,omitempty"`
}

// maxSchemaAttrs bounds a wire schema.
const maxSchemaAttrs = 1 << 12

// SchemaFromSpecs validates a wire schema and builds its attributes.
func SchemaFromSpecs(specs []AttrSpec) ([]Attribute, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("dataset: schema has no attributes")
	}
	if len(specs) > maxSchemaAttrs {
		return nil, fmt.Errorf("dataset: schema has %d attributes, limit %d", len(specs), maxSchemaAttrs)
	}
	attrs := make([]Attribute, len(specs))
	seen := make(map[string]bool, len(specs))
	for i, s := range specs {
		if s.Name == "" {
			return nil, fmt.Errorf("dataset: schema attribute %d has no name", i+1)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("dataset: duplicate schema attribute %q", s.Name)
		}
		seen[s.Name] = true
		switch s.Kind {
		case "categorical":
			if len(s.Labels) == 0 {
				return nil, fmt.Errorf("dataset: categorical attribute %q has no labels", s.Name)
			}
			if len(s.Labels) > 1<<16 {
				return nil, fmt.Errorf("dataset: attribute %q has %d labels, limit %d", s.Name, len(s.Labels), 1<<16)
			}
			labels := make(map[string]bool, len(s.Labels))
			for _, l := range s.Labels {
				if labels[l] {
					return nil, fmt.Errorf("dataset: attribute %q has duplicate label %q", s.Name, l)
				}
				labels[l] = true
			}
			attrs[i] = NewCategorical(s.Name, s.Labels)
		case "continuous":
			if s.Bins < 1 || s.Bins > 1<<16 {
				return nil, fmt.Errorf("dataset: continuous attribute %q needs bins in [1, %d], got %d", s.Name, 1<<16, s.Bins)
			}
			if math.IsNaN(s.Min) || math.IsNaN(s.Max) || math.IsInf(s.Min, 0) || math.IsInf(s.Max, 0) || s.Min >= s.Max {
				return nil, fmt.Errorf("dataset: continuous attribute %q has invalid range [%g, %g]", s.Name, s.Min, s.Max)
			}
			attrs[i] = NewContinuous(s.Name, s.Min, s.Max, s.Bins)
		default:
			return nil, fmt.Errorf("dataset: attribute %q has unknown kind %q", s.Name, s.Kind)
		}
	}
	return attrs, nil
}

// SpecsFromAttrs renders a schema in wire form, the inverse of
// SchemaFromSpecs. Taxonomy hierarchies are not carried (continuous
// attributes rebuild their binary tree from the bin count; categorical
// attributes come back without generalization).
func SpecsFromAttrs(attrs []Attribute) []AttrSpec {
	specs := make([]AttrSpec, len(attrs))
	for i := range attrs {
		a := &attrs[i]
		if a.Kind == Continuous {
			specs[i] = AttrSpec{Name: a.Name, Kind: "continuous", Min: a.Min, Max: a.Max, Bins: a.Size()}
		} else {
			specs[i] = AttrSpec{Name: a.Name, Kind: "categorical", Labels: append([]string(nil), a.Labels...)}
		}
	}
	return specs
}
