package experiment

import (
	"fmt"
	"math/rand"

	"privbayes/internal/baseline"
	"privbayes/internal/core"
)

// runMarginalBaselines reproduces Figures 12-15: average variation
// distance over Qα for PrivBayes against the count-query baselines.
func runMarginalBaselines(cfg Config, col *collector, dsName string, alphas []int) error {
	all, err := marginalSeries(cfg, dsName)
	if err != nil {
		return err
	}
	return runMarginalSeries(cfg, col, dsName, alphas, all)
}

// series is one curve of Figures 12-15: it releases a marginal source
// for a (α, ε) point from that repeat's generator.
type series struct {
	name string
	run  func(alpha int, eps float64, rng *rand.Rand) (baseline.MarginalSource, error)
}

// marginalSeries lists the series of Figures 12-15 on a dataset.
// Contingency and MWEM require materializing the full attribute domain,
// so — as in the paper — they run only on the binary datasets; MWEM on
// ACS (2^23 cells per improvement round) additionally hides behind
// Config.Heavy.
func marginalSeries(cfg Config, dsName string) ([]series, error) {
	ds, err := sourceData(dsName, cfg.N)
	if err != nil {
		return nil, err
	}
	binary := isBinary(ds)
	scorers := newScorerCache()
	all := []series{
		{"PrivBayes", func(alpha int, eps float64, rng *rand.Rand) (baseline.MarginalSource, error) {
			opt := cfg.defaultOptions(ds, eps, rng)
			opt.Scorer = scorers.get(opt.Score, dsName, ds)
			m, err := core.Fit(ds, opt)
			if err != nil {
				return nil, err
			}
			return &baseline.Dataset{DS: m.SampleP(ds.N(), rng, cfg.Parallelism)}, nil
		}},
		{"Laplace", func(alpha int, eps float64, rng *rand.Rand) (baseline.MarginalSource, error) {
			return baseline.NewLaplace(ds, alpha, eps, rng), nil
		}},
		{"Fourier", func(alpha int, eps float64, rng *rand.Rand) (baseline.MarginalSource, error) {
			if binary {
				return baseline.NewFourier(ds, alpha, eps, rng), nil
			}
			return baseline.NewFourierEncoded(ds, alpha, eps, rng), nil
		}},
		{"Uniform", func(alpha int, eps float64, rng *rand.Rand) (baseline.MarginalSource, error) {
			return &baseline.Uniform{DS: ds}, nil
		}},
	}
	if binary {
		if dsName == "NLTCS" || cfg.Heavy {
			all = append(all, series{"Contingency", func(alpha int, eps float64, rng *rand.Rand) (baseline.MarginalSource, error) {
				return baseline.NewContingency(ds, eps, rng), nil
			}})
			all = append(all, series{"MWEM", func(alpha int, eps float64, rng *rand.Rand) (baseline.MarginalSource, error) {
				return baseline.NewMWEM(ds, alpha, eps, rng), nil
			}})
		}
	}
	return all, nil
}

// runMarginalSeries adds one point per (α, ε, series) to col: the
// series' average variation distance over Qα across cfg.Repeats runs,
// each seeded by its (dataset, α, series, ε, repeat) alone, so a point
// does not depend on which other series run.
func runMarginalSeries(cfg Config, col *collector, dsName string, alphas []int, all []series) error {
	for ai, alpha := range alphas {
		panel := fmt.Sprintf("%c-Q%d", 'a'+ai, alpha)
		eval, err := cfg.evaluator(dsName, alpha)
		if err != nil {
			return err
		}
		for _, eps := range cfg.eps() {
			for _, s := range all {
				var sum float64
				for r := 0; r < cfg.Repeats; r++ {
					rng := cfg.rng("marg", dsName, alpha, s.name, eps, r)
					src, err := s.run(alpha, eps, rng)
					if err != nil {
						return err
					}
					sum += eval.AVD(src)
				}
				col.add(panel, s.name, eps, sum/float64(cfg.Repeats))
			}
		}
	}
	return nil
}
