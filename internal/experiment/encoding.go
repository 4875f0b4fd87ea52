package experiment

import (
	"fmt"

	"privbayes/internal/baseline"
	"privbayes/internal/workload"
)

// runEncodingCounts reproduces Figures 5 and 6: average variation
// distance over Qα for the four encodings on a non-binary dataset.
func runEncodingCounts(cfg Config, col *collector, dsName string, alphas []int) error {
	ds, err := sourceData(dsName, cfg.N)
	if err != nil {
		return err
	}
	scorers := newScorerCache()
	for _, alpha := range alphas {
		panel := fmt.Sprintf("%c-Q%d", 'a'+alpha-alphas[0], alpha)
		eval := workload.NewEvaluator(ds, alpha, cfg.MaxQuerySubsets, cfg.Parallelism, cfg.rng("eval", dsName, alpha))
		for _, eps := range cfg.eps() {
			for _, s := range encodingSeries {
				var sum float64
				for r := 0; r < cfg.Repeats; r++ {
					rng := cfg.rng("enc-count", dsName, alpha, s.name, eps, r)
					syn, err := synthesizeEncoded(s.kind, dsName, ds, eps, cfg, scorers, rng)
					if err != nil {
						return err
					}
					sum += eval.AVD(&baseline.Dataset{DS: syn})
				}
				col.add(panel, s.name, eps, sum/float64(cfg.Repeats))
			}
		}
	}
	return nil
}

// runEncodingSVM reproduces Figures 7 and 8: misclassification rates of
// SVM classifiers trained on synthetic data produced under each
// encoding. As in the paper, one synthetic dataset per run feeds all
// four classification tasks.
func runEncodingSVM(cfg Config, col *collector, dsName string) error {
	ds, err := sourceData(dsName, cfg.N)
	if err != nil {
		return err
	}
	tasks, err := workload.Tasks(dsName)
	if err != nil {
		return err
	}
	scorers := newScorerCache()
	for _, eps := range cfg.eps() {
		for _, s := range encodingSeries {
			sums := make([]float64, len(tasks))
			for r := 0; r < cfg.Repeats; r++ {
				train, test := scorers.split(cfg, dsName, ds, r)
				trainKey := fmt.Sprintf("%s/train%d", dsName, r)
				rng := cfg.rng("enc-svm", dsName, s.name, eps, r)
				syn, err := synthesizeEncoded(s.kind, trainKey, train, eps, cfg, scorers, rng)
				if err != nil {
					return err
				}
				for ti, task := range tasks {
					mcr, err := TrainAndScore(syn, test, task, rng)
					if err != nil {
						return err
					}
					sums[ti] += mcr
				}
			}
			for ti, task := range tasks {
				panel := fmt.Sprintf("%c-%s", 'a'+ti, task.Name)
				col.add(panel, s.name, eps, sums[ti]/float64(cfg.Repeats))
			}
		}
	}
	return nil
}
