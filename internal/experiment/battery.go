package experiment

import (
	"fmt"
	"sync"

	"privbayes/internal/baseline"
	"privbayes/internal/core"
	"privbayes/internal/workload"
)

// batteryPanel is one of the eight tasks used by Figures 9, 10 and 11:
// one counting and one classification task per dataset (Section 6.4).
type batteryPanel struct {
	label  string
	dsName string
	kind   string // "count" or "svm"
	alpha  int
	task   string
}

var battery = []batteryPanel{
	{"a-NLTCS-Q4", "NLTCS", "count", 4, ""},
	{"b-NLTCS-outside", "NLTCS", "svm", 0, "outside"},
	{"c-ACS-Q4", "ACS", "count", 4, ""},
	{"d-ACS-dwelling", "ACS", "svm", 0, "dwelling"},
	{"e-Adult-Q3", "Adult", "count", 3, ""},
	{"f-Adult-gender", "Adult", "svm", 0, "gender"},
	{"g-BR2000-Q3", "BR2000", "count", 3, ""},
	{"h-BR2000-religion", "BR2000", "svm", 0, "religion"},
}

var (
	evalMu    sync.Mutex
	evalCache = map[string]*workload.Evaluator{}
)

func (c Config) evaluator(dsName string, alpha int) (*workload.Evaluator, error) {
	ds, err := sourceData(dsName, c.N)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s|%d|%d|%d", dsName, alpha, c.MaxQuerySubsets, ds.N())
	evalMu.Lock()
	defer evalMu.Unlock()
	if e, ok := evalCache[key]; ok {
		return e, nil
	}
	e := workload.NewEvaluator(ds, alpha, c.MaxQuerySubsets, c.Parallelism, c.rng("eval", dsName, alpha))
	evalCache[key] = e
	return e, nil
}

// runPanelOnce executes one PrivBayes run for a battery panel and
// returns the panel's error metric. mutate adjusts the default options
// (β, θ, or the Figure 11 unlimited-budget switches) before fitting.
func runPanelOnce(cfg Config, scorers *scorerCache, p batteryPanel, eps float64, repeat int, tag string, mutate func(*core.Options)) (float64, error) {
	ds, err := sourceData(p.dsName, cfg.N)
	if err != nil {
		return 0, err
	}
	rng := cfg.rng(tag, p.label, eps, repeat)
	switch p.kind {
	case "count":
		opt := cfg.defaultOptions(ds, eps, rng)
		opt.Scorer = scorers.get(opt.Score, p.dsName, ds)
		mutate(&opt)
		m, err := core.Fit(ds, opt)
		if err != nil {
			return 0, err
		}
		syn := m.SampleP(ds.N(), rng, cfg.Parallelism)
		eval, err := cfg.evaluator(p.dsName, p.alpha)
		if err != nil {
			return 0, err
		}
		return eval.AVD(&baseline.Dataset{DS: syn}), nil
	case "svm":
		train, test := scorers.split(cfg, p.dsName, ds, repeat)
		task, err := workload.TaskByName(p.dsName, p.task)
		if err != nil {
			return 0, err
		}
		opt := cfg.defaultOptions(train, eps, rng)
		opt.Scorer = scorers.get(opt.Score, fmt.Sprintf("%s/train%d", p.dsName, repeat), train)
		mutate(&opt)
		m, err := core.Fit(train, opt)
		if err != nil {
			return 0, err
		}
		syn := m.SampleP(train.N(), rng, cfg.Parallelism)
		return TrainAndScore(syn, test, task, rng)
	default:
		return 0, fmt.Errorf("experiment: unknown panel kind %q", p.kind)
	}
}

// runBetaSweep reproduces Figure 9: error of the eight battery tasks as
// the budget split β varies, one series per ε.
func runBetaSweep(cfg Config, col *collector) error {
	return runParamSweep(cfg, col, "beta", BetaGrid, func(opt *core.Options, x float64) {
		opt.Beta = x
	})
}

// runThetaSweep reproduces Figure 10: the same battery as θ varies.
func runThetaSweep(cfg Config, col *collector) error {
	return runParamSweep(cfg, col, "theta", ThetaGrid, func(opt *core.Options, x float64) {
		opt.Theta = x
	})
}

func runParamSweep(cfg Config, col *collector, tag string, grid []float64, set func(*core.Options, float64)) error {
	scorers := newScorerCache()
	for _, p := range battery {
		for _, eps := range cfg.eps() {
			series := fmt.Sprintf("eps=%g", eps)
			for _, x := range grid {
				var sum float64
				for r := 0; r < cfg.Repeats; r++ {
					x := x
					v, err := runPanelOnce(cfg, scorers, p, eps, r, tag, func(opt *core.Options) { set(opt, x) })
					if err != nil {
						return err
					}
					sum += v
				}
				col.add(p.label, series, x, sum/float64(cfg.Repeats))
			}
		}
	}
	return nil
}

// runSourceOfError reproduces Figure 11: PrivBayes against BestNetwork
// (unlimited network-learning budget) and BestMarginal (noise-free
// marginals), isolating which phase dominates the error of each task.
func runSourceOfError(cfg Config, col *collector) error {
	scorers := newScorerCache()
	variants := []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"PrivBayes", func(*core.Options) {}},
		{"BestNetwork", func(o *core.Options) { o.InfiniteNetworkBudget = true }},
		{"BestMarginal", func(o *core.Options) { o.InfiniteMarginalBudget = true }},
	}
	for _, p := range battery {
		for _, eps := range cfg.eps() {
			for _, v := range variants {
				var sum float64
				for r := 0; r < cfg.Repeats; r++ {
					val, err := runPanelOnce(cfg, scorers, p, eps, r, "fig11-"+v.name, v.mutate)
					if err != nil {
						return err
					}
					sum += val
				}
				col.add(p.label, v.name, eps, sum/float64(cfg.Repeats))
			}
		}
	}
	return nil
}
