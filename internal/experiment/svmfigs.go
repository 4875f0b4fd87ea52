package experiment

import (
	"fmt"

	"privbayes/internal/core"
	"privbayes/internal/privsvm"
	"privbayes/internal/svm"
	"privbayes/internal/workload"
)

// runSVMBaselines reproduces Figures 16-19: misclassification rates of
// four simultaneously trained SVM classifiers per dataset. PrivBayes
// releases ONE synthetic dataset per run and trains all four classifiers
// from it; PrivateERM, PrivGene and Majority train each classifier with
// ε/4 of the budget; PrivateERM (Single) shows PrivateERM with the full
// ε per classifier; NoPrivacy is the non-private floor (Section 6.6).
func runSVMBaselines(cfg Config, col *collector, dsName string) error {
	ds, err := sourceData(dsName, cfg.N)
	if err != nil {
		return err
	}
	tasks, err := workload.Tasks(dsName)
	if err != nil {
		return err
	}
	scorers := newScorerCache()
	nt := len(tasks)

	for _, eps := range cfg.eps() {
		sums := map[string][]float64{}
		for _, name := range []string{"PrivBayes", "PrivateERM", "PrivateERM-Single", "PrivGene", "Majority", "NoPrivacy"} {
			sums[name] = make([]float64, nt)
		}
		for r := 0; r < cfg.Repeats; r++ {
			train, test := scorers.split(cfg, dsName, ds, r)

			// PrivBayes: one synthetic release for all four tasks.
			rng := cfg.rng("svmfig", dsName, "pb", eps, r)
			opt := cfg.defaultOptions(train, eps, rng)
			opt.Scorer = scorers.get(opt.Score, fmt.Sprintf("%s/train%d", dsName, r), train)
			m, err := core.Fit(train, opt)
			if err != nil {
				return err
			}
			syn := m.SampleP(train.N(), rng, cfg.Parallelism)

			for ti, task := range tasks {
				target, err := task.TargetIndex(train)
				if err != nil {
					return err
				}
				trainProb := svm.Featurize(train, target, task.Positive)
				testProb := svm.Featurize(test, target, task.Positive)
				taskRng := cfg.rng("svmfig", dsName, task.Name, eps, r)

				mcr, err := TrainAndScore(syn, test, task, taskRng)
				if err != nil {
					return err
				}
				sums["PrivBayes"][ti] += mcr

				erm := privsvm.PrivateERM(trainProb, eps/float64(nt), taskRng)
				sums["PrivateERM"][ti] += svm.MisclassificationRate(erm, testProb)

				ermSingle := privsvm.PrivateERM(trainProb, eps, taskRng)
				sums["PrivateERM-Single"][ti] += svm.MisclassificationRate(ermSingle, testProb)

				gene := privsvm.PrivGene(trainProb, eps/float64(nt), taskRng)
				sums["PrivGene"][ti] += svm.MisclassificationRate(gene, testProb)

				maj := privsvm.TrainMajority(trainProb, eps/float64(nt), taskRng)
				sums["Majority"][ti] += maj.MisclassificationRate(testProb)

				np := privsvm.NoPrivacy(trainProb, taskRng)
				sums["NoPrivacy"][ti] += svm.MisclassificationRate(np, testProb)
			}
		}
		for ti, task := range tasks {
			panel := fmt.Sprintf("%c-%s", 'a'+ti, task.Name)
			for name, vals := range sums {
				col.add(panel, name, eps, vals[ti]/float64(cfg.Repeats))
			}
		}
	}
	return nil
}
