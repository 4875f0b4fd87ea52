package experiment

import (
	"strings"
	"testing"
)

// tinyConfig keeps the integration runs to a couple of seconds each.
func tinyConfig() Config {
	return Config{
		Repeats:         1,
		N:               600,
		Eps:             []float64{0.2},
		MaxQuerySubsets: 40,
		MaxK:            3,
		Seed:            7,
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := Run("nope", tinyConfig()); err == nil {
		t.Fatal("unknown figure should error")
	}
}

func TestFiguresListStable(t *testing.T) {
	ids := Figures()
	if len(ids) != 18 {
		t.Fatalf("expected 18 experiment ids, got %d: %v", len(ids), ids)
	}
}

// Every figure must run end to end at tiny scale and produce points for
// the expected series.
func TestAllFiguresSmoke(t *testing.T) {
	wantSeries := map[string][]string{
		"4":      {"I", "R", "NoPrivacy"},
		"5":      {"Binary-F", "Gray-F", "Vanilla-R", "Hierarchical-R"},
		"6":      {"Binary-F", "Hierarchical-R"},
		"7":      {"Binary-F", "Hierarchical-R"},
		"8":      {"Vanilla-R"},
		"9":      {"eps=0.2"},
		"10":     {"eps=0.2"},
		"11":     {"PrivBayes", "BestNetwork", "BestMarginal"},
		"12":     {"PrivBayes", "Laplace", "Fourier", "Uniform", "Contingency", "MWEM"},
		"13":     {"PrivBayes", "Laplace", "Fourier", "Uniform"},
		"14":     {"PrivBayes", "Laplace", "Fourier", "Uniform"},
		"15":     {"PrivBayes", "Laplace", "Uniform"},
		"16":     {"PrivBayes", "PrivateERM", "PrivateERM-Single", "PrivGene", "Majority", "NoPrivacy"},
		"17":     {"PrivBayes", "NoPrivacy"},
		"18":     {"PrivBayes", "Majority"},
		"19":     {"PrivBayes", "PrivGene"},
		"table4": {"S(I)", "S(F)", "S(R)"},
		"table5": {"cardinality", "dimensionality", "log2-domain"},
	}
	for _, id := range Figures() {
		id := id
		t.Run("figure"+id, func(t *testing.T) {
			res, err := Run(id, tinyConfig())
			if err != nil {
				t.Fatalf("figure %s: %v", id, err)
			}
			if len(res.Points) == 0 {
				t.Fatalf("figure %s produced no points", id)
			}
			seen := map[string]bool{}
			for _, p := range res.Points {
				seen[p.Series] = true
				if p.Value != p.Value {
					t.Fatalf("figure %s: NaN value in %s/%s", id, p.Panel, p.Series)
				}
				if p.Value < 0 {
					t.Fatalf("figure %s: negative metric %v in %s/%s", id, p.Value, p.Panel, p.Series)
				}
			}
			for _, s := range wantSeries[id] {
				if !seen[s] {
					t.Errorf("figure %s: missing series %q (have %v)", id, s, keysOf(seen))
				}
			}
		})
	}
}

func keysOf(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestResultWriteCSV(t *testing.T) {
	res, err := Run("table5", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "figure,panel,series,x,value\n") {
		t.Error("missing CSV header")
	}
	if !strings.Contains(out, "table5,NLTCS,dimensionality,0,16") {
		t.Errorf("missing expected row:\n%s", out)
	}
}

// Determinism: the same config must reproduce identical points. At
// tinyConfig every Figure 4 point is 0 (θ-usefulness leaves each
// network empty), which no learner could get wrong, so this runs at a
// size and ε where networks form and checks that some point is not 0.
func TestRunDeterministic(t *testing.T) {
	cfg := tinyConfig()
	cfg.N = 3000
	cfg.Eps = []float64{1.6}
	a, err := Run("4", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("4", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatal("point counts differ")
	}
	nonzero := false
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs: %v vs %v", i, a.Points[i], b.Points[i])
		}
		nonzero = nonzero || a.Points[i].Value != 0
	}
	if !nonzero {
		t.Fatal("every point is 0: the comparison cannot see a nondeterministic learner")
	}
}

// The headline result in miniature: at a moderate ε on NLTCS, PrivBayes
// must beat the Laplace and Uniform baselines on Q3 marginals. It runs
// only the three asserted series of Figure 12's Q3 panel, through the
// figure's own series and seeds, so the values equal the full figure's;
// the other series and the Q4 panel run in TestAllFiguresSmoke.
func TestPrivBayesBeatsBaselinesSmallScale(t *testing.T) {
	cfg := tinyConfig()
	cfg.N = 4000
	cfg.Eps = []float64{0.4}
	cfg.Repeats = 2
	cfg.MaxQuerySubsets = 120
	all, err := marginalSeries(cfg, "NLTCS")
	if err != nil {
		t.Fatal(err)
	}
	var asserted []series
	for _, s := range all {
		switch s.name {
		case "PrivBayes", "Laplace", "Uniform":
			asserted = append(asserted, s)
		}
	}
	col := &collector{cfg: &cfg, figure: "12"}
	if err := runMarginalSeries(cfg, col, "NLTCS", []int{3}, asserted); err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, p := range col.points {
		if p.Panel == "a-Q3" {
			vals[p.Series] = p.Value
		}
	}
	t.Logf("a-Q3 AVD at ε=0.4: PrivBayes %v, Laplace %v, Uniform %v", vals["PrivBayes"], vals["Laplace"], vals["Uniform"])
	if !(vals["PrivBayes"] < vals["Laplace"]) {
		t.Errorf("PrivBayes %v should beat Laplace %v", vals["PrivBayes"], vals["Laplace"])
	}
	if !(vals["PrivBayes"] < vals["Uniform"]) {
		t.Errorf("PrivBayes %v should beat Uniform %v", vals["PrivBayes"], vals["Uniform"])
	}
}
