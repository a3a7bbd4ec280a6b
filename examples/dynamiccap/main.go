// Dynamiccap: demonstrate that the predicted Pareto frontier makes the
// system adaptable to dynamic power constraints (§III-C) — when the
// cluster-level power policy changes the node's budget, the scheduler
// re-selects from the already-predicted configuration space instead of
// re-profiling or re-predicting.
//
//	go run ./examples/dynamiccap
package main

import (
	"fmt"
	"log"

	"acsel/internal/apu"
	"acsel/internal/core"
	"acsel/internal/kernels"
	"acsel/internal/profiler"
)

func main() {
	const target = "SMC/Default/Diffterm"

	var training []kernels.Kernel
	var kernel kernels.Kernel
	for _, combo := range kernels.Combos() {
		if combo.Benchmark == "SMC" {
			for _, k := range combo.Kernels {
				if k.ID() == target {
					kernel = k
				}
			}
			continue
		}
		training = append(training, combo.Kernels...)
	}

	prof := profiler.New()
	opts := core.DefaultTrainOptions()
	profiles, err := core.Characterize(prof, training, opts)
	if err != nil {
		log.Fatal(err)
	}
	model, err := core.Train(prof.Space, profiles, opts)
	if err != nil {
		log.Fatal(err)
	}

	// Two sample iterations and one prediction, once — the prediction
	// table is then reusable for every future cap change.
	cpuRun, err := prof.RunConfig(kernel, apu.SampleConfigCPU(), 0)
	if err != nil {
		log.Fatal(err)
	}
	gpuRun, err := prof.RunConfig(kernel, apu.SampleConfigGPU(), 1)
	if err != nil {
		log.Fatal(err)
	}
	pred, err := model.Predict(core.SampleRuns{CPU: cpuRun, GPU: gpuRun})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: predicted frontier has %d points (out of %d configurations)\n\n",
		target, pred.Frontier().Len(), prof.Space.Len())

	// A power policy that tightens, then relaxes, the node budget.
	schedule := []float64{40, 30, 24, 18, 14, 18, 24, 30, 40}
	fmt.Printf("%-8s %-30s %-10s %-10s\n", "cap W", "config (from frontier walk)", "pred /s", "true W")
	iter := 2
	for _, capW := range schedule {
		// Below the predicted floor, Select falls back to the
		// minimum-power configuration.
		sel, err := pred.Select(capW, 0)
		if err != nil {
			log.Fatal(err)
		}
		s, err := prof.Run(kernel, sel.ConfigID, iter)
		if err != nil {
			log.Fatal(err)
		}
		iter++
		mark := ""
		if s.TotalPowerW() > capW {
			mark = " (over)"
		}
		fmt.Printf("%-8.0f %-30v %-10.2f %-10.1f%s\n",
			capW, sel.Config, sel.Predicted.Perf, s.TotalPowerW(), mark)
	}
}
