package core

// Tests pinning the shared-scan integration: a joint counted from an
// in-memory source, cold or from its cached parent index, must be
// bit-identical to per-pair materialization at every parallelism, and
// bounding the scorer memo must never change a fitted model.

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"privbayes/internal/marginal"
	"privbayes/internal/score"
)

// TestMaterializeJointCachedBitIdentical checks a joint counted from the
// in-memory source against marginal.Materialize: both scale the exact
// counts once by 1/n, at every parallelism.
func TestMaterializeJointCachedBitIdentical(t *testing.T) {
	ds := chainData(2999, 31) // odd n: 1/n inexact, normalization drift would show
	pair := APPair{
		X:       marginal.Var{Attr: 3},
		Parents: []marginal.Var{{Attr: 0}, {Attr: 2}},
	}
	want := marginal.Materialize(ds, pair.Vars())
	for _, par := range []int{1, 2, 4} {
		cs := marginal.NewMemorySource(ds, par)
		// The second call hits the cached parent index; still identical.
		for rep := 0; rep < 2; rep++ {
			got, err := materializeJoint(cs, pair)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.P {
				if got.P[i] != want.P[i] {
					t.Fatalf("parallelism %d call %d cell %d: %v, want %v", par, rep, i, got.P[i], want.P[i])
				}
			}
		}
	}
}

// TestNoisyConditionalsCachedBitIdentical runs the full conditional
// stage from a fresh source and from the scorer's source, whose index
// cache the greedy search warmed, under identical noise streams; every
// conditional block must match byte for byte.
func TestNoisyConditionalsCachedBitIdentical(t *testing.T) {
	ds := chainData(2500, 32)
	sc := score.NewScorer(score.F, ds)
	net, err := greedyBayes(context.Background(), ds.D(), binaryCandidates(ds.D(), 2), 0.5, sc, 2, rand.New(rand.NewSource(9)), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 4} {
		want, err := noisyConditionals(context.Background(), marginal.NewMemorySource(ds, par), net, 2, 1.0,
			Options{Parallelism: par, Rand: rand.New(rand.NewSource(10))}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := noisyConditionals(context.Background(), sc.CountSource(), net, 2, 1.0,
			Options{Parallelism: par, Rand: rand.New(rand.NewSource(10))}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i].P {
				if got[i].P[j] != want[i].P[j] {
					t.Fatalf("parallelism %d: conditional %d cell %d = %v, want %v", par, i, j, got[i].P[j], want[i].P[j])
				}
			}
		}
	}
}

// TestFitBoundedScorerCacheBitIdentical checks ScorerCacheSize is purely
// a memory bound: the fitted model is byte-equal to the unbounded run.
func TestFitBoundedScorerCacheBitIdentical(t *testing.T) {
	for _, mode := range []Mode{ModeBinary, ModeGeneral} {
		fit := func(cacheSize int) []byte {
			var opt Options
			if mode == ModeBinary {
				opt = Options{Epsilon: 0.8, Beta: 0.3, Theta: 4, K: 2, Mode: ModeBinary,
					Score: score.F, Parallelism: 2, ScorerCacheSize: cacheSize,
					Rand: rand.New(rand.NewSource(11))}
			} else {
				opt = Options{Epsilon: 0.8, Beta: 0.3, Theta: 4, Mode: ModeGeneral,
					Score: score.R, UseHierarchy: true, Parallelism: 2, ScorerCacheSize: cacheSize,
					Rand: rand.New(rand.NewSource(11))}
			}
			var ds = chainData(2000, 33)
			if mode == ModeGeneral {
				ds = mixedData(2000, 33)
			}
			m, err := Fit(ds, opt)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.WriteJSON(&buf, 0.8); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		if !bytes.Equal(fit(0), fit(3)) {
			t.Errorf("mode %v: bounded scorer cache changed the fitted model", mode)
		}
	}
}
