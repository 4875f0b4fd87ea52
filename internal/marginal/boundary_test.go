package marginal

import (
	"fmt"
	"testing"

	"privbayes/internal/dataset"
)

// Boundary regression tests for the MaxParentConfigs overflow guard: a
// parent set landing exactly on the uint32 cap must be accepted, one
// configuration past it must be rejected, by both the overflow-safe
// ParentConfigs check and BuildParentIndex's panic guard. The factoring
// 2^32−1 = 65537 × 65535 needs a 65537-value attribute, which only a
// virtual (schema-only) dataset can carry — uint16 column storage tops
// out at 65536 codes — so the guard is probed on a 0-row virtual
// dataset, exactly the shape the out-of-core fit path feeds it.

func bigAttr(name string, size int) dataset.Attribute {
	labels := make([]string, size)
	for i := range labels {
		labels[i] = fmt.Sprintf("v%d", i)
	}
	return dataset.NewCategorical(name, labels)
}

func TestParentConfigsExactlyAtCap(t *testing.T) {
	// 65537 × 65535 = 2^32 − 1 = MaxParentConfigs exactly.
	ds := dataset.NewVirtual([]dataset.Attribute{
		bigAttr("a", 65537),
		bigAttr("b", 65535),
	}, 0)
	parents := []Var{{Attr: 0}, {Attr: 1}}

	size, ok := ParentConfigs(ds, parents)
	if !ok {
		t.Fatalf("ParentConfigs rejected a parent set exactly at the cap")
	}
	if int64(size) != int64(MaxParentConfigs) {
		t.Fatalf("ParentConfigs = %d, want %d", size, int64(MaxParentConfigs))
	}

	// BuildParentIndex must accept the same set without panicking.
	ix := BuildParentIndex(ds, parents)
	if int64(ix.PiDim) != int64(MaxParentConfigs) {
		t.Fatalf("PiDim = %d, want %d", ix.PiDim, int64(MaxParentConfigs))
	}
}

func TestParentConfigsOnePastCap(t *testing.T) {
	// 65536 × 65536 = 2^32 = MaxParentConfigs + 1.
	ds := dataset.NewVirtual([]dataset.Attribute{
		bigAttr("a", 65536),
		bigAttr("b", 65536),
	}, 0)
	parents := []Var{{Attr: 0}, {Attr: 1}}

	if size, ok := ParentConfigs(ds, parents); ok {
		t.Fatalf("ParentConfigs accepted %d configurations, one past the cap", size)
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("BuildParentIndex accepted a parent set one past the cap")
		}
	}()
	BuildParentIndex(ds, parents)
}

// TestParentConfigsOverflowWrap pins the overflow-safety of the check
// itself: a product that wraps int64 far past the cap must still be
// rejected, not wrap around to something small.
func TestParentConfigsOverflowWrap(t *testing.T) {
	attrs := make([]dataset.Attribute, 5)
	vars := make([]Var, 5)
	for i := range attrs {
		attrs[i] = bigAttr(fmt.Sprintf("a%d", i), 65536)
		vars[i] = Var{Attr: i}
	}
	ds := dataset.NewVirtual(attrs, 0)
	if size, ok := ParentConfigs(ds, vars); ok {
		t.Fatalf("ParentConfigs accepted a 2^80-configuration parent set (reported %d)", size)
	}
}
