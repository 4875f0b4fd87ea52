package experiment

import (
	"privbayes/internal/core"
	"privbayes/internal/score"
)

// runFigure4 reproduces Figure 4: the quality (sum of mutual
// information) of the Bayesian network learned with score functions I,
// F (binary datasets only) and R, against the non-private greedy
// network ("NoPrivacy"), as ε varies. Binary datasets use the
// SIGMOD'14 binary pipeline; Adult and BR2000 use vanilla encoding
// (Section 6.2), so F is omitted there exactly as in the paper.
func runFigure4(cfg Config, col *collector) error {
	panels := []struct {
		panel, ds string
	}{
		{"a-NLTCS", "NLTCS"},
		{"b-ACS", "ACS"},
		{"c-Adult", "Adult"},
		{"d-BR2000", "BR2000"},
	}
	scorers := newScorerCache()
	for _, p := range panels {
		ds, err := sourceData(p.ds, cfg.N)
		if err != nil {
			return err
		}
		fns := []score.Function{score.MI, score.R}
		if isBinary(ds) {
			fns = append(fns, score.F)
		}
		for _, eps := range cfg.eps() {
			// Private score-function series.
			for _, fn := range fns {
				var sum float64
				for r := 0; r < cfg.Repeats; r++ {
					opt := cfg.defaultOptions(ds, eps, cfg.rng("fig4", p.ds, fn, eps, r))
					opt.Score, opt.UseHierarchy = fn, false // vanilla: no hierarchy
					opt.Scorer = scorers.get(fn, p.ds, ds)
					m, err := core.Fit(ds, opt)
					if err != nil {
						return err
					}
					sum += m.Network.SumMI(ds)
				}
				col.add(p.panel, fn.String(), eps, sum/float64(cfg.Repeats))
			}
			// NoPrivacy: the optimal greedy network under the same
			// θ-derived capacity, found by maximizing I without noise.
			var sum float64
			for r := 0; r < cfg.Repeats; r++ {
				opt := cfg.defaultOptions(ds, eps, cfg.rng("fig4", p.ds, "np", eps, r))
				opt.Score, opt.UseHierarchy = score.MI, false
				opt.Scorer = scorers.get(score.MI, p.ds, ds)
				opt.InfiniteNetworkBudget = true
				m, err := core.Fit(ds, opt)
				if err != nil {
					return err
				}
				sum += m.Network.SumMI(ds)
			}
			col.add(p.panel, "NoPrivacy", eps, sum/float64(cfg.Repeats))
		}
	}
	return nil
}
