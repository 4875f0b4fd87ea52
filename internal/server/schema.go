package server

import "privbayes/internal/dataset"

// AttrSpec is the wire form of one schema attribute, carried in the
// "schema" field of a POST /fit request and in the body of POST
// /datasets/{id}; dataset.SchemaFromSpecs validates it.
type AttrSpec = dataset.AttrSpec

// SpecsFromAttrs renders a dataset schema in wire form, for clients
// that already hold a *dataset.Dataset.
func SpecsFromAttrs(attrs []dataset.Attribute) []AttrSpec { return dataset.SpecsFromAttrs(attrs) }
