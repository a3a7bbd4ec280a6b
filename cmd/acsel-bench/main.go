// Command acsel-bench regenerates every table and figure of the
// paper's evaluation (§V) from the simulated testbed: Table I/II/III
// and Figures 1–9, plus the cluster assignments of each
// cross-validation fold.
//
// Usage:
//
//	acsel-bench                 # run everything
//	acsel-bench -exp table3     # one experiment
//	acsel-bench -iterations 3   # profiling iterations per config
//	acsel-bench -list           # list experiment names
//	acsel-bench -exp chaos      # Table III under every fault scenario
//	acsel-bench -exp chaos -chaos-scenario sensor-stuck -chaos-seed 7
//	acsel-bench -exp table3 -metrics-dump out.json   # keep the telemetry
//	acsel-bench -metrics-addr :9090                  # live /metrics + pprof
//	acsel-bench -fold-workers 1                      # sequential folds (same output)
//	acsel-bench -model-cache .acsel-cache            # reuse fold models across runs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"acsel/internal/eval"
	"acsel/internal/fault"
	"acsel/internal/kernels"
	"acsel/internal/metrics"
	"acsel/internal/trace"

	// Register the adaptive runtime's metric families: acsel-bench never
	// executes rts itself, but a -metrics-dump snapshot should carry the
	// full inventory so dashboards and CI assertions see every family,
	// silent ones at zero.
	_ "acsel/internal/rts"
)

var experiments = []string{
	"fig1", "table1", "fig2", "table2", "fig3",
	"table3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"clusters", "accuracy", "extensions", "suite", "worst",
	"chaos",
}

func main() {
	exp := flag.String("exp", "all", "experiment to run ("+strings.Join(experiments, ", ")+" or all; chaos only runs when named explicitly)")
	iters := flag.Int("iterations", 3, "profiling iterations per configuration")
	k := flag.Int("k", 5, "cluster count")
	list := flag.Bool("list", false, "list experiment names and exit")
	csvDir := flag.String("csv-dir", "", "optional directory for CSV exports (profiles and cases)")
	chaosScenario := flag.String("chaos-scenario", "all", "fault scenario for -exp chaos (a scenario name or all)")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-plan seed for -exp chaos")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /debug/pprof on this address for the duration of the run")
	metricsDump := flag.String("metrics-dump", "", "write a JSON metrics snapshot to this file at exit")
	foldWorkers := flag.Int("fold-workers", 0, "concurrent cross-validation folds (0 = GOMAXPROCS, 1 = sequential; any value yields identical output)")
	modelCache := flag.String("model-cache", "", "optional directory for the content-addressed trained-model cache")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Println(e)
		}
		return
	}

	if *metricsAddr != "" {
		addr, stop, err := metrics.Serve(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "acsel-bench: metrics listener:", err)
			os.Exit(1)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "acsel-bench: metrics shutdown:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "metrics: serving http://%s/metrics (and /debug/pprof)\n", addr)
	}

	if err := run(os.Stdout, *exp, *iters, *k, *foldWorkers, *csvDir, *chaosScenario, *chaosSeed, *modelCache); err != nil {
		fmt.Fprintln(os.Stderr, "acsel-bench:", err)
		os.Exit(1)
	}
	if *metricsDump != "" {
		if err := metrics.DumpFile(*metricsDump); err != nil {
			fmt.Fprintln(os.Stderr, "acsel-bench: metrics dump:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics: snapshot written to %s\n", *metricsDump)
	}
}

// run executes the selected experiments, printing their reports to
// stdout and progress notes to stderr.
func run(stdout io.Writer, exp string, iters, k, foldWorkers int, csvDir, chaosScenario string, chaosSeed int64, modelCache string) error {
	selected := map[string]bool{}
	if exp == "all" {
		for _, e := range experiments {
			selected[e] = true
		}
		// Chaos deliberately injects faults; it never rides along with
		// "all", keeping the default outputs identical to a clean run.
		delete(selected, "chaos")
	} else {
		ok := false
		for _, e := range experiments {
			if e == exp {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", exp)
		}
		selected[exp] = true
	}

	h := eval.NewHarness()
	h.Opts.Iterations = iters
	h.Opts.K = k
	h.Workers = foldWorkers
	h.ModelCacheDir = modelCache
	fmt.Fprintf(os.Stderr, "characterizing 65 kernel/input combinations at %d configurations (%d iterations)...\n",
		h.Profiler.Space.Len(), iters)
	ev, err := h.Run()
	if err != nil {
		return err
	}
	space := h.Profiler.Space

	emit := func(name, body string, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if selected[name] {
			fmt.Fprintln(stdout, body)
		}
		return nil
	}

	if selected["fig1"] {
		fmt.Fprintln(stdout, eval.ReportFig1())
	}
	t1, err := ev.ReportTable1(space)
	if err := emit("table1", t1, err); err != nil {
		return err
	}
	f2, err := ev.ReportFig2(space)
	if err := emit("fig2", f2, err); err != nil {
		return err
	}
	if selected["fig2"] {
		plot, err := ev.PlotFrontier(space, eval.FrontierKernelID)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, plot)
	}
	if selected["table2"] {
		fmt.Fprintln(stdout, eval.ReportTable2())
	}
	if selected["fig3"] {
		// Show the LULESH fold's tree, as an arbitrary representative.
		f3, err := ev.ReportFig3("LULESH")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, f3)
	}
	if selected["table3"] {
		fmt.Fprintln(stdout, ev.ReportTable3())
	}
	if selected["fig4"] {
		fmt.Fprintln(stdout, ev.ReportFig4())
	}
	if selected["fig5"] {
		fmt.Fprintln(stdout, ev.ReportFig5())
	}
	if selected["fig6"] {
		fmt.Fprintln(stdout, ev.ReportFig6())
	}
	f7, err := ev.ReportFig7(space)
	if err := emit("fig7", f7, err); err != nil {
		return err
	}
	if selected["fig7"] {
		plot, err := ev.PlotFrontier(space, eval.Fig7KernelID)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, plot)
	}
	if selected["fig8"] {
		fmt.Fprintln(stdout, ev.ReportFig8())
	}
	if selected["fig9"] {
		fmt.Fprintln(stdout, ev.ReportFig9())
	}
	if selected["accuracy"] {
		acc, err := ev.ReportAccuracy()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, acc)
	}
	if selected["suite"] {
		fmt.Fprintln(stdout, kernels.ReportSuite())
	}
	if selected["worst"] {
		w, err := ev.ReportWorstPredicted(10)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, w)
	}
	if selected["chaos"] {
		scenarios := fault.Scenarios()
		if chaosScenario != "all" {
			sc, ok := fault.ScenarioByName(chaosScenario)
			if !ok {
				return fmt.Errorf("unknown chaos scenario %q", chaosScenario)
			}
			scenarios = []fault.Scenario{sc}
		}
		fmt.Fprintf(os.Stderr, "re-running the method comparison under %d fault scenario(s), seed %d...\n",
			len(scenarios), chaosSeed)
		rep, err := ev.RunChaos(scenarios, chaosSeed, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, rep.Report())
	}
	if selected["extensions"] {
		fmt.Fprintln(os.Stderr, "running extension study (4 full evaluations)...")
		results, err := eval.RunExtensionStudy(iters)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, eval.ReportExtensionStudy(results))
	}
	if csvDir != "" {
		if err := exportCSV(csvDir, ev); err != nil {
			return err
		}
	}
	if selected["clusters"] {
		var folds []string
		for f := range ev.FoldModels {
			folds = append(folds, f)
		}
		sort.Strings(folds)
		for _, f := range folds {
			fmt.Fprintf(stdout, "cluster assignments (fold holding out %s):\n%s\n", f, eval.ReportClusterAssignments(ev.FoldModels[f]))
		}
	}
	return nil
}

// exportCSV writes the characterization and case data for external
// analysis.
func exportCSV(dir string, ev *eval.Evaluation) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	err := trace.WriteFile(filepath.Join(dir, "profiles.csv"), func(w io.Writer) error {
		return trace.WriteProfilesCSV(w, ev.Profiles)
	})
	if err != nil {
		return err
	}
	err = trace.WriteFile(filepath.Join(dir, "cases.csv"), func(w io.Writer) error {
		return trace.WriteCasesCSV(w, ev.Cases)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "CSV exports written to %s\n", dir)
	return nil
}
