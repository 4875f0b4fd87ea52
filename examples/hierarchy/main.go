// Hierarchy: taxonomy trees and the hierarchical encoding (Section 5.1).
// Builds a dataset with a wide categorical attribute plus a taxonomy
// tree, and shows how PrivBayes picks generalized parents when the raw
// domain would violate θ-usefulness — and how accuracy compares to the
// vanilla (no-hierarchy) encoding at a small budget.
package main

import (
	"context"
	"fmt"
	"math/rand"

	"privbayes"
	"privbayes/internal/baseline"
	"privbayes/internal/workload"
)

func main() {
	// "city" has 16 values grouped into 4 regions and then 2 coasts;
	// "income" depends on the REGION, not the exact city — exactly the
	// structure a taxonomy tree lets PrivBayes exploit.
	cities := make([]string, 16)
	region := make([]int, 16)
	coast := make([]int, 16)
	for i := range cities {
		cities[i] = fmt.Sprintf("city-%02d", i)
		region[i] = i / 4
		coast[i] = i / 8
	}
	city := privbayes.NewCategorical("city", cities)
	city.Hierarchy = privbayes.NewHierarchy(16, region, coast)

	attrs := []privbayes.Attribute{
		city,
		privbayes.NewCategorical("income", []string{"low", "mid", "high"}),
		privbayes.NewCategorical("commuter", []string{"no", "yes"}),
	}

	gen := rand.New(rand.NewSource(5))
	ds := privbayes.NewDataset(attrs)
	for i := 0; i < 30_000; i++ {
		c := gen.Intn(16)
		r := c / 4
		// Income distribution varies by region; commuting by coast.
		inc := 0
		u := gen.Float64()
		switch {
		case u < 0.2+0.15*float64(r):
			inc = 2
		case u < 0.6:
			inc = 1
		}
		com := 0
		if gen.Float64() < 0.25+0.4*float64(c/8) {
			com = 1
		}
		ds.Append([]uint16{uint16(c), uint16(inc), uint16(com)})
	}

	const eps = 0.02
	eval := workload.NewEvaluator(ds, 2, 0, 0, nil)
	for _, disable := range []bool{false, true} {
		name := "hierarchical"
		if disable {
			name = "vanilla"
		}
		model, err := privbayes.Fit(context.Background(), ds,
			privbayes.WithEpsilon(eps),
			privbayes.WithHierarchy(!disable),
			privbayes.WithSeed(9),
		)
		if err != nil {
			panic(err)
		}
		syn := model.SampleP(ds.N(), rand.New(rand.NewSource(10)), 0)
		avd := eval.AVD(&baseline.Dataset{DS: syn})

		fmt.Printf("%s encoding (ε = %g):\n", name, eps)
		fmt.Printf("  learned network:\n")
		for _, pair := range model.Network.Pairs {
			x := attrs[pair.X.Attr].Name
			fmt.Printf("    %s <- ", x)
			if len(pair.Parents) == 0 {
				fmt.Print("(none)")
			}
			for _, p := range pair.Parents {
				fmt.Printf("%s(level %d) ", attrs[p.Attr].Name, p.Level)
			}
			fmt.Println()
		}
		fmt.Printf("  avg variation distance over all 2-way marginals: %.4f\n\n", avd)
	}
	fmt.Println("With the taxonomy tree, PrivBayes can keep a coarse version of the")
	fmt.Println("wide city attribute as a parent instead of dropping it entirely.")
}
