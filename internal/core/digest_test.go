package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"

	"privbayes/internal/dataset"
	"privbayes/internal/marginal"
	"privbayes/internal/score"
)

// modelDigest is the hex SHA-256 of m's serialized bytes.
func modelDigest(t *testing.T, m *Model, epsilon float64) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf, epsilon); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestFitModelDigests pins the exact bytes of fixed-seed models: each
// configuration is fitted at parallelism 1 and 3, and each fit is
// followed by a distribution-only refit over a MemorySource of the
// same rows, as the curator runs it (general-mode refits get k = −1).
// The digests cover both algorithm families, the Infinite* references
// and the consistency post-processing, so any change to the RNG order,
// the candidate order, the noise scale or the float arithmetic of
// either mechanism shows here.
func TestFitModelDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which changes the
		// last bits of the conditionals.
		t.Skipf("digests are recorded on amd64, running on %s", runtime.GOARCH)
	}
	binary := chainData(3000, 51)
	mixed := mixedData(3000, 52)
	cases := []struct {
		name       string
		ds         *dataset.Dataset
		opt        Options
		fit, refit string
	}{
		{"binary-F-K2", binary, Options{Epsilon: 0.8, K: 2, Mode: ModeBinary, Score: score.F},
			"9b04fac606cb459c6a71ed7f04ca92f872b907cf448848608415715e88779dce",
			"05410a8928cbd3557407409d08c617c3a8a9b07928290eebdcac7ce5b17c035c"},
		{"binary-F-autoK", binary, Options{Epsilon: 0.2, K: -1, Mode: ModeBinary, Score: score.F},
			"e687c3047dc332ef51ce03b563e48fe15ef12360326e50daf06ffa291510d309",
			"935e71136123caadc82be1930f91638447fc2a1d0a3a1744078ee3cad0ddbe2a"},
		{"binary-MI-K3-consistency", binary, Options{Epsilon: 1, K: 3, Mode: ModeBinary, Score: score.MI, Consistency: true},
			"668e96ad54cf23bb4d592bc276e25610a6d6ebfee4302d43b4887bb433de70f1",
			"858535ccb7c5e92619f6250b667a51b19c97c6b6dbce4367a0ff5539a6c23c1d"},
		{"binary-F-infinite-network", binary, Options{Epsilon: 0.8, K: 2, Mode: ModeBinary, Score: score.F, InfiniteNetworkBudget: true},
			"43cfd2cfa84386ac9a704cf6995e363113270a2260b20bf71a106ca05ca40501",
			"318210f4f029f6f1dcb8ac15d980f13b646b1587fe8a788250529b4523e40a9a"},
		{"binary-F-infinite-marginal", binary, Options{Epsilon: 0.8, K: 2, Mode: ModeBinary, Score: score.F, InfiniteMarginalBudget: true},
			"8977bd52eb84faaa90d1d1ca0988374f28b8164b8668860c751d14a5ded5ba0a",
			"c60fa56ed6edaa2b1242593c111c9f8ea46d0c8ddf718e5d9319f9fc84a39be4"},
		{"general-R-binary-data", binary, Options{Epsilon: 0.8, K: -1, Mode: ModeGeneral, Score: score.R},
			"435bff97631ce4f2a745d510e4aa91466925808d95f734b08d403ce55855f4c4",
			"997cbd4e49ddda83686b668c3ef6b7349e5c479df0252c2106d93a85e766199f"},
		{"general-R-mixed", mixed, Options{Epsilon: 0.2, K: -1, Mode: ModeGeneral, Score: score.R},
			"7805bdc1e46eb600d7d85f1bf6658581cbd4e731b87999accdfac7c64edb4009",
			"d4f1eaabbb172cf07bc8680a70a3617b26529bfa0f189052a794faa2d82ebd5b"},
		{"general-R-mixed-hierarchy", mixed, Options{Epsilon: 0.2, K: -1, Mode: ModeGeneral, Score: score.R, UseHierarchy: true},
			"dff4954d523e72d2b6e130c04bd3585e28d31293d0d0afdae430ab543729b1da",
			"4e5d73e942f192ece53b005654b2b359616be56b82abf8e503f1c6da373d1106"},
		{"general-MI-hierarchy-consistency", mixed, Options{Epsilon: 0.25, K: -1, Mode: ModeGeneral, Score: score.MI, UseHierarchy: true, Consistency: true},
			"14d1e984196643d7eebd5f1ca241adba30d9459d66cbe7447cb2ee48424971d4",
			"24e9ea0685a84c1896ca4963cb56b255693e05a3800dc0827ba6f01f525ca571"},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 3} {
			opt := tc.opt
			opt.Beta, opt.Theta, opt.Parallelism = 0.3, 4, par
			opt.Rand = rand.New(rand.NewSource(61))
			m, err := Fit(tc.ds, opt)
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", tc.name, par, err)
			}
			if got := modelDigest(t, m, opt.Epsilon); got != tc.fit {
				t.Errorf("%s parallelism %d: fit digest %s, want %s", tc.name, par, got, tc.fit)
			}

			refitOpt := opt
			refitOpt.Epsilon = 0.7 * opt.Epsilon
			refitOpt.Rand = rand.New(rand.NewSource(62))
			refit, err := RefitCountsContext(context.Background(), tc.ds.Attrs(),
				marginal.NewMemorySource(tc.ds, par), m.Network, m.K, refitOpt)
			if err != nil {
				t.Fatalf("%s parallelism %d refit: %v", tc.name, par, err)
			}
			if got := modelDigest(t, refit, refitOpt.Epsilon); got != tc.refit {
				t.Errorf("%s parallelism %d: refit digest %s, want %s", tc.name, par, got, tc.refit)
			}
		}
	}
}
