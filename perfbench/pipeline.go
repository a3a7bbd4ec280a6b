package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"acsel/internal/core"
	"acsel/internal/eval"
	"acsel/internal/kernels"
	"acsel/internal/rts"
)

// refTable3 is the stdout of `acsel-bench -exp table3` at the commit
// that introduced this benchmark; refCasesDigest is casesDigest of the
// same evaluation. Both are seed-independent: characterization and
// cross-validation take no workload input.
var (
	//go:embed testdata/table3.txt
	refTable3 string
	//go:embed testdata/cases.sha256
	refCasesDigest string
)

// Replay shape: every combo's kernels run replayIters iterations (two
// sample iterations, then pinned), and the combo's cap changes every
// capEvery iterations, drawn from [minReplayCapW, maxReplayCapW).
const (
	replayIters      = 12
	smallReplayIters = 4
	capEvery         = 3
	minReplayCapW    = 14.0
	maxReplayCapW    = 40.0
)

type pipeline struct {
	combos []kernels.Combo
	ks     []kernels.Kernel
	caps   [][]float64 // per combo, one cap per capEvery iterations
	iters  int

	refSteps      string
	setupProblems []string

	stepLats []float32 // µs per rts step, this phase
	stepP50  float64
	stepP99  float64
	stepN    int
	last     *pipelineOut
}

type pipelineOut struct {
	profiles []*core.KernelProfile
	ev       *eval.Evaluation
	table3   string
	cases    string
	steps    string
}

func setupPipeline(cfg config) (instance, error) {
	p := &pipeline{combos: kernels.Combos(), iters: replayIters}
	if cfg.small {
		p.iters = smallReplayIters
	}
	for _, c := range p.combos {
		p.ks = append(p.ks, c.Kernels...)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for range p.combos {
		var caps []float64
		for j := 0; j < (p.iters+capEvery-1)/capEvery; j++ {
			// Quarter-watt steps, as a node-level power manager would set.
			w := minReplayCapW + rng.Float64()*(maxReplayCapW-minReplayCapW)
			caps = append(caps, math.Round(w*4)/4)
		}
		p.caps = append(p.caps, caps)
	}
	// The set-up repetition warms the heap and fixes this seed's rts
	// step sequence, which every timed repetition must reproduce.
	out, err := p.runOnce(nil, nil)
	if err != nil {
		return nil, err
	}
	p.refSteps = out.steps
	p.setupProblems = checkPipelineOut(out, out.steps)
	p.last = out
	return p, nil
}

// runOnce is one repetition: fresh characterization, cross-validated
// evaluation, and the online replay.
func (p *pipeline) runOnce(tk *track, stepLats *[]float32) (*pipelineOut, error) {
	h := eval.NewHarness()
	tk.begin()
	profiles, err := core.Characterize(h.Profiler, p.ks, h.Opts)
	tk.end(spanCharacterize)
	if err != nil {
		return nil, fmt.Errorf("characterize: %w", err)
	}
	tk.begin()
	ev, err := h.RunOnProfiles(profiles)
	tk.end(spanRunOnProfiles)
	if err != nil {
		return nil, fmt.Errorf("evaluate: %w", err)
	}
	tk.begin()
	steps, err := p.replay(tk, ev, stepLats)
	tk.end(spanReplay)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return &pipelineOut{profiles: profiles, ev: ev, table3: ev.ReportTable3(), cases: casesDigest(ev), steps: steps}, nil
}

// replay runs every combo's kernels through an rts.Runtime (FL and
// watchdog on, no faults) using the fold model that held the combo's
// benchmark out, under the seeded cap schedule. It returns a digest of
// the step sequence.
func (p *pipeline) replay(tk *track, ev *eval.Evaluation, stepLats *[]float32) (string, error) {
	h := sha256.New()
	for ci, c := range p.combos {
		model, ok := ev.FoldModels[c.Benchmark]
		if !ok {
			return "", fmt.Errorf("no fold model for %s", c.Benchmark)
		}
		rt, err := rts.New(model, rts.Options{CapW: p.caps[ci][0], FL: true, Watchdog: true})
		if err != nil {
			return "", err
		}
		for it := 0; it < p.iters; it++ {
			if it%capEvery == 0 {
				if err := rt.SetCap(p.caps[ci][it/capEvery]); err != nil {
					return "", err
				}
			}
			for _, k := range c.Kernels {
				tk.begin()
				t0 := time.Now()
				st, err := rt.RunKernel(k)
				d := time.Since(t0)
				tk.end(stepSpan(st.Phase))
				if err != nil {
					return "", fmt.Errorf("%s iteration %d: %w", k.ID(), it, err)
				}
				if stepLats != nil {
					*stepLats = append(*stepLats, float32(d.Seconds()*1e6))
				}
				fmt.Fprintf(h, "%+v\n", st)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func stepSpan(ph rts.Phase) spanName {
	switch ph {
	case rts.PhaseSampleCPU:
		return spanSampleStep
	case rts.PhaseSampleGPU:
		return spanAdaptStep
	}
	return spanPinnedStep
}

// casesDigest hashes every case's decision and outcome, in order.
func casesDigest(ev *eval.Evaluation) string {
	h := sha256.New()
	for _, c := range ev.Cases {
		fmt.Fprintf(h, "%s|%s|%s|%x|", c.KernelID, c.Combo, c.Method, math.Float64bits(c.CapW))
		writeDecision(h, c.Decision.ConfigID, c.Decision.TruePerf, c.Decision.TruePower, c.Decision.FLSteps)
		writeDecision(h, c.Oracle.ConfigID, c.Oracle.TruePerf, c.Oracle.TruePower, c.Oracle.FLSteps)
		fmt.Fprintf(h, "%t|%x|%x|%x|%t\n", c.Under, math.Float64bits(c.PerfRatio),
			math.Float64bits(c.PowerRatio), math.Float64bits(c.Weight), c.Infeasible)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeDecision(h hash.Hash, id int, perf, power float64, flSteps int) {
	fmt.Fprintf(h, "%d|%x|%x|%d|", id, math.Float64bits(perf), math.Float64bits(power), flSteps)
}

// checkPipelineOut compares one repetition with the references.
func checkPipelineOut(out *pipelineOut, refSteps string) []string {
	var probs []string
	if out.table3+"\n" != refTable3 {
		probs = append(probs, "Table III differs from testdata/table3.txt:\n"+out.table3)
	}
	if out.cases != strings.TrimSpace(refCasesDigest) {
		probs = append(probs, fmt.Sprintf("evaluation cases digest %s, want %s", out.cases, strings.TrimSpace(refCasesDigest)))
	}
	if out.steps != refSteps {
		probs = append(probs, fmt.Sprintf("rts step sequence digest %s differs from the set-up repetition's %s", out.steps, refSteps))
	}
	return probs
}

func (p *pipeline) startPhase() { p.stepLats = nil }

func (p *pipeline) op(tk *track, _, _ int) (time.Duration, error) {
	t0 := time.Now()
	tk.beginOp()
	tk.begin()
	out, err := p.runOnce(tk, &p.stepLats)
	tk.end(spanOp)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	if probs := checkPipelineOut(out, p.refSteps); len(probs) > 0 {
		return lat, fmt.Errorf("%w: %s", errCheck, strings.Join(probs, "; "))
	}
	p.last = out
	return lat, nil
}

func (p *pipeline) verify(traced bool) (int, []string) {
	if !traced {
		p.stepN = len(p.stepLats)
		p.stepP50 = quantile(p.stepLats, 0.5)
		p.stepP99 = quantile(p.stepLats, 0.99)
	}
	probs := p.setupProblems
	p.setupProblems = nil
	return len(probs), probs
}

func (p *pipeline) dropRecords() { p.stepLats = nil }

func (p *pipeline) layerMetrics(m metricSet, base *phaseResult) {
	m.set("pipeline_s", base.p50us/1e6, "s")
	m.set("step_p50_us", p.stepP50, "us")
	m.set("step_p99_us", p.stepP99, "us")
	m.set("step_samples", float64(p.stepN), "count")
	probePredictAll(m, foldModels(p.last.ev), sampleRunsOf(p.last.profiles))
}

func (p *pipeline) close() {}

// foldModels lists an evaluation's fold models in benchmark order.
func foldModels(ev *eval.Evaluation) []*core.Model {
	var benches []string
	for b := range ev.FoldModels {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	var out []*core.Model
	for _, b := range benches {
		out = append(out, ev.FoldModels[b])
	}
	return out
}

func sampleRunsOf(profiles []*core.KernelProfile) []core.SampleRuns {
	out := make([]core.SampleRuns, len(profiles))
	for i, kp := range profiles {
		out[i] = core.SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample}
	}
	return out
}

// probePredictAll times Model.PredictAll on every (model, sample runs)
// pair, in rounds, and reports the median round's per-call time and
// allocations.
func probePredictAll(m metricSet, models []*core.Model, srs []core.SampleRuns) {
	var perCallUs, allocs []float64
	deadline := time.Now().Add(300 * time.Millisecond)
	for r := 0; r < 3 || time.Now().Before(deadline); r++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		calls := 0
		for _, model := range models {
			for _, sr := range srs {
				if _, _, err := model.PredictAll(sr); err != nil {
					return
				}
				calls++
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		perCallUs = append(perCallUs, d.Seconds()*1e6/float64(calls))
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/float64(calls))
	}
	m.set("core.predict_all_us", median64(perCallUs), "us")
	m.set("core.predict_all_allocs", median64(allocs), "count")
}
