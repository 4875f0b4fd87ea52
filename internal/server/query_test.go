package server

import (
	"context"
	"testing"

	"privbayes/internal/core"
)

// TestQueryEndpointMarginal: the v2 query endpoint agrees bit for bit
// with the v1 marginal endpoint and with an in-process Model.Query —
// all three are the same engine.
func TestQueryEndpointMarginal(t *testing.T) {
	_, c, m := newTestServer(t, Config{})
	ctx := context.Background()

	res, err := c.Query(ctx, "fixture", QueryRequest{
		Kind:  "marginal",
		Attrs: []core.AttrRef{{Name: "color"}, {Name: "employed"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "marginal" || len(res.Dims) != 2 {
		t.Fatalf("result = %+v", res)
	}
	want, err := m.Query(ctx, core.Marginal("color", "employed"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.P) != len(want.P) {
		t.Fatalf("%d cells, want %d", len(res.P), len(want.P))
	}
	for i := range want.P {
		if res.P[i] != want.P[i] {
			t.Fatalf("cell %d: endpoint %v, Model.Query %v", i, res.P[i], want.P[i])
		}
	}
	v1, err := c.Marginal(ctx, "fixture", []string{"color", "employed"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.P {
		if v1.P[i] != res.P[i] {
			t.Fatalf("cell %d: /marginal %v, /query %v", i, v1.P[i], res.P[i])
		}
	}
}

// TestQueryEndpointConditional: conditional, prob and count answers
// match in-process Model.Query.
func TestQueryEndpointConditional(t *testing.T) {
	_, c, m := newTestServer(t, Config{})
	ctx := context.Background()

	res, err := c.Query(ctx, "fixture", QueryRequest{
		Kind:  "conditional",
		Attrs: []core.AttrRef{{Name: "employed"}},
		Where: []core.Predicate{core.Eq("color", "red")},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Query(ctx, core.Conditional([]string{"employed"}, core.Eq("color", "red")))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.P {
		if res.P[i] != want.P[i] {
			t.Fatalf("cell %d: server %v, local %v", i, res.P[i], want.P[i])
		}
	}

	prob, err := c.Query(ctx, "fixture", QueryRequest{
		Kind:  "prob",
		Where: []core.Predicate{core.In("color", "red", "blue"), core.Eq("employed", "yes")},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := m.Query(ctx, core.Prob(core.In("color", "red", "blue"), core.Eq("employed", "yes")))
	if err != nil {
		t.Fatal(err)
	}
	if prob.Value != wantP.Value {
		t.Fatalf("prob = %v, want %v", prob.Value, wantP.Value)
	}

	count, err := c.Query(ctx, "fixture", QueryRequest{
		Kind:  "count",
		N:     10_000,
		Where: []core.Predicate{core.Eq("employed", "yes")},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantC, err := m.Query(ctx, core.Count(10_000, core.Eq("employed", "yes")))
	if err != nil {
		t.Fatal(err)
	}
	if count.Value != wantC.Value {
		t.Fatalf("count = %v, want %v", count.Value, wantC.Value)
	}
}

// TestQueryEndpointRollup: taxonomy-level rollup works over the wire
// (age carries the automatic binary hierarchy of continuous columns).
func TestQueryEndpointRollup(t *testing.T) {
	_, c, m := newTestServer(t, Config{})
	ctx := context.Background()

	raw, err := c.Query(ctx, "fixture", QueryRequest{
		Kind:  "marginal",
		Attrs: []core.AttrRef{{Name: "age"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rolled, err := c.Query(ctx, "fixture", QueryRequest{
		Kind:  "marginal",
		Attrs: []core.AttrRef{{Name: "age", Level: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rolled.P) >= len(raw.P) || rolled.Levels[0] != 1 {
		t.Fatalf("rollup did not shrink the domain: raw %d cells, level 1 %d cells", len(raw.P), len(rolled.P))
	}
	var ai int
	for i := range m.Attrs {
		if m.Attrs[i].Name == "age" {
			ai = i
		}
	}
	want := make([]float64, len(rolled.P))
	for code, p := range raw.P {
		want[m.Attrs[ai].Generalize(1, code)] += p
	}
	for i := range want {
		if diff := rolled.P[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("level-1 cell %d: got %v, want %v", i, rolled.P[i], want[i])
		}
	}
}
