// Command perfbench is the repository benchmark: it runs one named
// workload against the public entry points of core, eval, rts and
// query, checks every output, and prints one JSON result line.
//
//	perfbench --workload paper-pipeline --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics of a
// traced run (spans recorded around the benchmark's own calls into each
// layer, plus the layers' metric families), and the spans are written
// under --out. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	acselmetrics "acsel/internal/metrics"
)

// config is everything a workload's set-up derives its inputs from.
type config struct {
	seed      int64
	seconds   time.Duration
	outDir    string
	setupReps int
	// small shrinks a workload to a smoke-test size (two fault
	// scenarios, a shorter rts replay); characterization stays full size,
	// so the pipeline's reference checks still apply.
	small bool
}

// instance is one set-up workload, ready to run timed phases.
type instance interface {
	// startPhase clears the per-phase records.
	startPhase()
	// op runs one operation on behalf of caller and returns the latency
	// that counts for it. A non-nil error is a failed operation.
	op(tk *track, caller, i int) (time.Duration, error)
	// verify checks the recorded outputs of the phase just run and
	// returns how many operations failed a check, with the reasons.
	verify(traced bool) (failed int, problems []string)
	// dropRecords releases per-phase records before the heap is sized,
	// leaving the system state itself live.
	dropRecords()
	// layerMetrics adds the workload's own per-layer metrics: probes,
	// and figures of the untraced phase base that only it has.
	layerMetrics(m metricSet, base *phaseResult)
	close()
}

type workload struct {
	name    string
	callers int
	// minOps is the least number of operations a phase runs per caller,
	// whatever the duration.
	minOps int
	// cycle, when above 1, rounds each caller's operation count up to a
	// multiple of it, so a phase ends at the same point of a periodic
	// operation mix (serve-churn: right after a reload).
	cycle int
	setup func(cfg config) (instance, error)
}

func workloads() []workload {
	return []workload{
		{name: "paper-pipeline", callers: 1, minOps: 2, setup: setupPipeline},
		{name: "chaos-sweep", callers: 1, minOps: 2, setup: setupChaos},
		{name: "serve-hot", callers: 2, minOps: 1, setup: setupServeHot},
		{name: "serve-churn", callers: 2, minOps: 1, cycle: reloadEvery, setup: setupServeChurn},
	}
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metricVal

func (m metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metricVal{Value: v, Unit: unit}
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	wall    time.Duration
	lats    []float32 // per-op latency, µs; released by summarize
	p50us   float64
	p99us   float64
	qps     float64
	ops     int
	errMsgs []string // one per failed op
	before  procSample
	after   procSample
	snapA   acselmetrics.Snapshot
	snapB   acselmetrics.Snapshot
}

// summarize computes the latency percentiles and releases the samples,
// which would otherwise count towards the live heap.
func (p *phaseResult) summarize() {
	p.p50us = quantile(p.lats, 0.5)
	p.p99us = quantile(p.lats, 0.99)
	p.lats = nil
}

// Throughput is counted per window: the phase is cut into qpsWindows
// equal windows, and when every window averages at least
// minOpsPerWindow completions, qps is the median window's rate, which a
// stall of a second or two does not move. Slower ops (whole pipeline
// repetitions or sweeps) are too few for that; their qps is ops over
// the phase's wall time.
const (
	qpsWindows      = 10
	minOpsPerWindow = 1000
)

// runPhase drives inst with wl.callers closed-loop callers for dur
// (and at least minOps operations each), then returns the merged
// measurements. tr is nil for an untraced phase.
func runPhase(inst instance, wl workload, dur time.Duration, minOps int, tr *tracer) *phaseResult {
	inst.startPhase()
	ph := &phaseResult{}
	lats := make([][]float32, wl.callers)
	errs := make([][]string, wl.callers)
	done := make([][qpsWindows]int, wl.callers) // completions per window
	ph.snapA = acselmetrics.Default.TakeSnapshot()
	runtime.GC()
	ph.before = readProc()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < wl.callers; c++ {
		var tk *track
		if tr != nil {
			tk = tr.tracks[c]
		}
		wg.Add(1)
		go func(c int, tk *track) {
			defer wg.Done()
			for i := 0; ; i++ {
				el := time.Since(start)
				if i >= minOps && el >= dur && (wl.cycle <= 1 || i%wl.cycle == 0) {
					break
				}
				if i > 0 && el < dur {
					done[c][el*qpsWindows/dur]++ // op i-1 completed at el
				}
				lat, err := inst.op(tk, c, i)
				if err != nil {
					errs[c] = append(errs[c], err.Error())
				}
				lats[c] = append(lats[c], float32(lat.Seconds()*1e6))
			}
		}(c, tk)
	}
	wg.Wait()
	ph.wall = time.Since(start) //lint:ignore walltime the benchmark reports elapsed wall time by design
	ph.after = readProc()
	ph.snapB = acselmetrics.Default.TakeSnapshot()
	for c := range lats {
		ph.lats = append(ph.lats, lats[c]...)       //lint:ignore walltime per-op latencies are the measurement
		ph.errMsgs = append(ph.errMsgs, errs[c]...) //lint:ignore walltime error messages carry no time; the taint follows the loop
	}
	ph.ops = len(ph.lats)
	ph.qps = float64(ph.ops) / ph.wall.Seconds() //lint:ignore walltime throughput is the measurement
	if dur > 0 && ph.ops >= qpsWindows*minOpsPerWindow {
		rates := make([]float64, qpsWindows)
		for w := range rates {
			for c := range done {
				rates[w] += float64(done[c][w])
			}
			rates[w] /= (dur / qpsWindows).Seconds()
		}
		ph.qps = median64(rates)
		fmt.Fprintf(os.Stderr, "perfbench: ops/s per %v window: %.0f\n", dur/qpsWindows, rates)
	}
	ph.summarize()
	return ph
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of each timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory for span files and scratch model files")
	flag.Parse()

	var wl workload
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
		if w.name == *name {
			wl = w
		}
	}
	if wl.setup == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		outDir:    *outDir,
		setupReps: 5,
	}
	res, err := run(wl, cfg, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up setupReps times (keeping the last instance),
// runs the untraced phase and, when traced, the traced phase, and
// assembles the result. An error means the benchmark could not run at
// all; failed checks are reported in the result instead.
func run(wl workload, cfg config, traced bool) (*result, error) {
	if cfg.setupReps < 1 {
		cfg.setupReps = 1
	}
	var setupS []float64
	var inst instance
	for r := 0; r < cfg.setupReps; r++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = wl.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()

	// A traced run splits its time between an untraced and a traced
	// phase of equal length, so it takes as long as an untraced run.
	phaseDur := cfg.seconds
	if traced {
		phaseDur /= 2
	}
	base := runPhase(inst, wl, phaseDur, wl.minOps, nil)
	failed, problems := inst.verify(false)
	failed += len(base.errMsgs)
	problems = append(problems, base.errMsgs...)
	inst.dropRecords()
	heap := liveHeapMB()
	fmt.Fprintf(os.Stderr, "perfbench: hypervisor steal took %.1f%% of the machine's CPU time during the timed phase\n",
		100*stealFrac(base.before, base.after))

	res := &result{Attempted: base.ops, Metrics: metricSet{}}
	if !traced {
		m := res.Metrics
		m.set("setup_s", median64(setupS), "s")
		m.set("latency_p50_us", base.p50us, "us")
		m.set("qps", base.qps, "1/s")
		m.set("allocs_per_op", float64(base.after.mallocs-base.before.mallocs)/float64(base.ops), "count")
		m.set("alloc_bytes_per_op", float64(base.after.allocBytes-base.before.allocBytes)/float64(base.ops), "B")
		m.set("live_heap_mb", heap, "MB")
	} else {
		tr := newTracer(wl.callers)
		tph := runPhase(inst, wl, phaseDur, 1, tr)
		tf, tp := inst.verify(true)
		failed += tf + len(tph.errMsgs)
		problems = append(problems, tp...)
		problems = append(problems, tph.errMsgs...)
		res.Attempted += tph.ops
		st := tr.stats()
		layerMetrics(res.Metrics, base, tph, st)
		inst.layerMetrics(res.Metrics, base)
		inst.dropRecords()
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", wl.name, cfg.seed))
		hdr := map[string]any{"workload": wl.name, "seed": cfg.seed, "ops": tph.ops,
			"wall_ns": tph.wall.Nanoseconds(), "spans_kept": st.spans, "spans_dropped": st.dropped}
		if err := tr.writeSpans(path, hdr); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s (%d beyond the per-caller bound counted but not kept)\n",
			st.spans, path, st.dropped)
	}
	res.Failed = failed
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Correct = failed == 0 && len(problems) == 0
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if traced {
		res.Metrics.set("failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	}
	printSummary(wl, res)
	return res, nil
}

// layerMetrics fills the per-layer metrics every workload shares: the
// untraced phase's figures that have no place among the end-to-end
// metrics, span-derived self times, and the tracing overhead.
func layerMetrics(m metricSet, base, tph *phaseResult, st *spanStats) {
	ops := float64(tph.ops)
	m.set("latency_p99_us", base.p99us, "us")
	m.set("latency_samples", float64(base.ops), "count")
	m.set("trace.overhead_frac", tph.p50us/base.p50us-1, "ratio")
	m.set("trace.spans", float64(st.spans+st.dropped), "count")
	gcFrac := (base.after.gcCPU - base.before.gcCPU) / (base.after.totalCPU - base.before.totalCPU)
	m.set("runtime.gc_cpu_frac", gcFrac, "ratio")
	m.set("runtime.steal_frac", stealFrac(base.before, base.after), "ratio")

	// Self time per layer, per operation. bench.op's self time is the
	// part of each operation no layer span covers: the unattributed
	// remainder, stated as a share of the operations' wall time.
	self := st.layerSelfNs()
	for _, layer := range []string{"bench", "core", "eval", "rts", "sched", "fault", "query"} {
		m.set(layer+".self_ms", float64(self[layer])/ops/1e6, "ms")
	}
	if tot := st.totalNs[spanOp]; tot > 0 {
		m.set("trace.unattributed_frac", float64(st.selfNs[spanOp])/float64(tot), "ratio")
	} else {
		m.set("trace.unattributed_frac", 0, "ratio")
	}
	spanMedian := func(n spanName, scale float64) float64 { return quantile(st.samples[n], 0.5) * scale }
	m.set("core.characterize_s", float64(st.totalNs[spanCharacterize])/ops/1e9, "s")
	m.set("rts.adapt_step_us", spanMedian(spanAdaptStep, 1), "us")
	m.set("rts.pinned_step_us", spanMedian(spanPinnedStep, 1), "us")
	m.set("sched.oracle_us", spanMedian(spanOracle, 1), "us")
	m.set("sched.decide_naive_us", spanMedian(spanDecideNaive, 1), "us")
	m.set("sched.decide_hardened_us", spanMedian(spanDecideHardened, 1), "us")
	m.set("query.select_us", spanMedian(spanSelect, 1), "us")
	m.set("query.handler_us", spanMedian(spanHandler, 1), "us")
	m.set("query.reload_ms", spanMedian(spanReload, 1e-3), "ms")

	a, b := tph.snapA, tph.snapB
	perOp := func(name string, sum bool, lk, lv string) float64 { return famDelta(a, b, name, sum, lk, lv) / ops }
	m.set("profiler.runs", perOp("acsel_profiler_runs_total", false, "", ""), "count")
	m.set("profiler.run_s", perOp("acsel_profiler_run_seconds", true, "", ""), "s")
	m.set("core.cluster_s", perOp("acsel_core_phase_seconds", true, "phase", "cluster"), "s")
	m.set("core.regressions_s", perOp("acsel_core_phase_seconds", true, "phase", "regressions"), "s")
	m.set("core.classifier_s", perOp("acsel_core_phase_seconds", true, "phase", "classifier"), "s")
	m.set("eval.matrix_s", perOp("acsel_eval_matrix_seconds", true, "mode", "full"), "s")
	m.set("eval.folds_s", perOp("acsel_eval_phase_seconds", true, "phase", "folds"), "s")
	m.set("eval.aggregate_s", perOp("acsel_eval_phase_seconds", true, "phase", "aggregate"), "s")
	m.set("eval.run_on_profiles_s", float64(st.totalNs[spanRunOnProfiles])/ops/1e9, "s")
	m.set("rts.steps", perOp("acsel_rts_steps_total", false, "", ""), "count")
	m.set("rts.cap_violations", perOp("acsel_rts_cap_violations_total", false, "", ""), "count")
	m.set("sched.decisions", perOp("acsel_sched_decisions_total", false, "", ""), "count")
	m.set("fault.injected", perOp("acsel_fault_injected_total", false, "", ""), "count")
	m.set("query.reloads", famDelta(a, b, "acsel_query_model_reloads_total", false, "", ""), "count")
	m.set("query.coalesced", famDelta(a, b, "acsel_query_coalesced_total", false, "", ""), "count")
	m.set("query.shed", famDelta(a, b, "acsel_query_shed_total", false, "", ""), "count")
	hits := famDelta(a, b, "acsel_query_cache_hits_total", false, "", "")
	misses := famDelta(a, b, "acsel_query_cache_misses_total", false, "", "")
	if hits+misses > 0 {
		m.set("query.cache_hit_ratio", hits/(hits+misses), "ratio")
	} else {
		m.set("query.cache_hit_ratio", 0, "ratio")
	}
	waitN := famDelta(a, b, "acsel_query_queue_wait_seconds", false, "", "")
	if waitN > 0 {
		m.set("query.queue_wait_us", famDelta(a, b, "acsel_query_queue_wait_seconds", true, "", "")/waitN*1e6, "us")
	} else {
		m.set("query.queue_wait_us", 0, "us")
	}
	// Workload-specific names default to 0 (the layer does no work
	// there); the workload's own layerMetrics overrides them.
	for _, name := range []string{"pipeline_s", "sweep_s", "step_p50_us", "step_p99_us", "step_samples",
		"core.predict_all_us", "core.predict_all_allocs", "core.select_among_ns", "core.load_ms", "core.hash_ms",
		"query.decode_us", "fault.at_ns", "load.repeated_key_share"} {
		m.set(name, 0, unitOf(name))
	}
}

func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_ratio"):
		return "ratio"
	}
	return "count"
}

func printSummary(wl workload, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops attempted, %d failed\n", wl.name, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// errCheck marks an output-check failure of one operation.
var errCheck = errors.New("output check failed")
