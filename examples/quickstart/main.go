// Quickstart: train the model offline, then adaptively select a
// configuration for a never-seen kernel under a power cap — the
// end-to-end flow of the paper in ~60 lines.
//
//	go run ./examples/quickstart
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
	// Offline stage: characterize every benchmark except LULESH (we will
	// pretend LULESH is the new application) and train the model.
	var training []kernels.Kernel
	var unseen []kernels.Kernel
	for _, combo := range kernels.Combos() {
		if combo.Benchmark == "LULESH" {
			if combo.Input == "Small" {
				unseen = append(unseen, combo.Kernels...)
			}
			continue
		}
		training = append(training, combo.Kernels...)
	}

	prof := profiler.New()
	opts := core.DefaultTrainOptions()
	fmt.Printf("offline: profiling %d training kernels at %d configurations each...\n",
		len(training), prof.Space.Len())
	profiles, err := core.Characterize(prof, training, opts)
	if err != nil {
		log.Fatal(err)
	}
	model, err := core.Train(prof.Space, profiles, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline: trained %d clusters (sizes %v), classifier depth %d\n\n",
		model.K, model.ClusterSizes(), model.Tree.Depth())

	// Online stage: for each new kernel, run the two sample iterations,
	// classify, and pick the best predicted configuration under 22 W.
	const capW = 22.0
	fmt.Printf("online: scheduling unseen LULESH Small kernels under a %.0f W cap\n", capW)
	fmt.Printf("%-34s %-28s %-9s %-9s %-6s\n", "kernel", "selected config", "pred W", "true W", "ok")
	for _, k := range unseen[:8] {
		cpuRun, err := prof.RunConfig(k, apu.SampleConfigCPU(), 0)
		if err != nil {
			log.Fatal(err)
		}
		gpuRun, err := prof.RunConfig(k, apu.SampleConfigGPU(), 1)
		if err != nil {
			log.Fatal(err)
		}
		pred, err := model.Predict(core.SampleRuns{CPU: cpuRun, GPU: gpuRun})
		if err != nil {
			log.Fatal(err)
		}
		sel, err := pred.Select(capW, 0)
		if err != nil {
			log.Fatal(err)
		}
		// Third iteration onward runs at the selected configuration.
		final, err := prof.Run(k, sel.ConfigID, 2)
		if err != nil {
			log.Fatal(err)
		}
		ok := "yes"
		if final.TotalPowerW() > capW {
			ok = "OVER"
		}
		fmt.Printf("%-34s %-28v %-9.1f %-9.1f %-6s\n",
			k.Name, sel.Config, sel.Predicted.PowerW, final.TotalPowerW(), ok)
	}
}
