package main

import (
	"fmt"
	"strings"
	"time"

	"acsel/internal/core"
	"acsel/internal/eval"
	"acsel/internal/fault"
	"acsel/internal/sched"
)

// hardenedSlack is how far the hardened posture's under-limit share may
// trail the naive one's before the sweep counts as wrong; it is the
// slack internal/eval's chaos tests allow.
const hardenedSlack = 0.02

type chaos struct {
	seed      int64
	scenarios []fault.Scenario
	ev        *eval.Evaluation

	reports []string // Report() of each sweep in this phase
	ref     *eval.ChaosReport
	// mismatches counts re-driven decisions that differ from ref.
	mismatches int
	firstDiff  string
}

func setupChaos(cfg config) (instance, error) {
	ev, err := eval.NewHarness().Run()
	if err != nil {
		return nil, err
	}
	c := &chaos{seed: cfg.seed, scenarios: fault.Scenarios(), ev: ev}
	if cfg.small {
		c.scenarios = c.scenarios[:2]
	}
	if ev.ReportTable3()+"\n" != refTable3 {
		return nil, fmt.Errorf("clean evaluation's Table III differs from testdata/table3.txt")
	}
	return c, nil
}

func (c *chaos) startPhase() {
	c.reports = nil
	c.mismatches, c.firstDiff = 0, ""
}

// op is one sweep. Untraced, it is one eval.RunChaos call. Traced, the
// sweep's decisions are re-driven through sched's public decision API so
// the sched and fault layers get spans, and every decision is compared
// with the untraced sweep's.
func (c *chaos) op(tk *track, _, _ int) (time.Duration, error) {
	t0 := time.Now()
	if tk != nil {
		tk.beginOp()
		tk.begin()
		err := c.redrive(tk)
		tk.end(spanOp)
		return time.Since(t0), err
	}
	rep, err := c.ev.RunChaos(c.scenarios, c.seed, nil)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	c.reports = append(c.reports, rep.Report())
	c.ref = rep
	if probs := chaosInvariants(c.ev, rep); len(probs) > 0 {
		return lat, fmt.Errorf("%w: %s", errCheck, strings.Join(probs, "; "))
	}
	return lat, nil
}

// chaosInvariants are the properties internal/eval's chaos tests pin:
// hardened no worse than naive for the FL methods, and the sensorless
// methods identical to the clean evaluation under every scenario.
func chaosInvariants(clean *eval.Evaluation, rep *eval.ChaosReport) []string {
	var probs []string
	for _, sres := range rep.Scenarios {
		for _, m := range []sched.Method{sched.MethodCPUFL, sched.MethodGPUFL, sched.MethodModelFL} {
			n, h := sres.Naive.Overall[m].PctUnder, sres.Hardened.Overall[m].PctUnder
			if h < n-hardenedSlack {
				probs = append(probs, fmt.Sprintf("%s %s: hardened %.3f under-limit below naive %.3f", sres.Scenario.Name, m, h, n))
			}
		}
		for _, m := range []sched.Method{sched.MethodOracle, sched.MethodModel} {
			want := clean.Overall[m].PctUnder
			//lint:ignore floatcmp sensorless methods must reproduce the clean numbers exactly
			if sres.Naive.Overall[m].PctUnder != want || sres.Hardened.Overall[m].PctUnder != want {
				probs = append(probs, fmt.Sprintf("%s %s: sensorless method moved under faults", sres.Scenario.Name, m))
			}
		}
	}
	return probs
}

// tracedReadings wraps a sensor so each read is a fault-layer span.
type tracedReadings struct {
	inner sched.Readings
	tk    *track
}

func (r tracedReadings) ReadPowerW(id, step, attempt int) (float64, error) {
	r.tk.begin()
	w, err := r.inner.ReadPowerW(id, step, attempt)
	r.tk.end(spanFaultRead)
	return w, err
}

// chaosKey is the consumer key eval.RunChaos gives each decision
// process; the re-drive must use the same one to draw the same faults.
func chaosKey(kernelID string, capIdx int, m sched.Method, posture string) string {
	return fmt.Sprintf("%s|c%d|%s|%s", kernelID, capIdx, m, posture)
}

// redrive replays one sweep's decisions in RunChaos order and compares
// each with the reference sweep's case at the same position.
func (c *chaos) redrive(tk *track) error {
	if c.ref == nil {
		return fmt.Errorf("no untraced sweep to compare the traced one with")
	}
	methods := sched.Methods()
	for si, sc := range c.scenarios {
		inj := fault.NewInjector(sc, c.seed)
		want := c.ref.Scenarios[si]
		idx := 0
		for _, kp := range c.ev.Profiles {
			model := c.ev.FoldModels[kp.Benchmark]
			runner := &sched.Runner{Space: model.Space, Model: model}
			truth := sched.ProfileTruth{Profile: kp}
			sr := core.SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample}
			for capIdx, pt := range kp.Frontier.Points() {
				tk.begin()
				runner.Oracle(truth, pt.Power)
				tk.end(spanOracle)
				for _, m := range methods {
					read := func(posture string) sched.Readings {
						return tracedReadings{tk: tk, inner: sched.FaultyReadings{Truth: truth, Faults: inj, Key: chaosKey(kp.KernelID, capIdx, m, posture)}}
					}
					tk.begin()
					nd, err := runner.DecideNaive(m, truth, read("naive"), sr, pt.Power)
					tk.end(spanDecideNaive)
					if err != nil {
						return err
					}
					tk.begin()
					hd, err := runner.DecideHardened(m, truth, read("hard"), sr, pt.Power)
					tk.end(spanDecideHardened)
					if err != nil {
						return err
					}
					c.compare(want, idx, nd, hd)
					idx++
				}
			}
		}
		if idx != len(want.Naive.Cases) {
			c.mismatch(fmt.Sprintf("%s: re-drive made %d decisions per posture, the sweep %d", sc.Name, idx, len(want.Naive.Cases)))
		}
	}
	return nil
}

func (c *chaos) compare(want eval.ChaosScenarioResult, idx int, nd, hd sched.Decision) {
	if idx >= len(want.Naive.Cases) || idx >= len(want.Hardened.Cases) {
		return // counted once per scenario by redrive
	}
	if want.Naive.Cases[idx].Decision != nd || want.Hardened.Cases[idx].Decision != hd {
		k := want.Naive.Cases[idx]
		c.mismatch(fmt.Sprintf("%s %s %s cap %.3f: re-driven decision differs from RunChaos", want.Scenario.Name, k.KernelID, k.Method, k.CapW))
	}
}

func (c *chaos) mismatch(msg string) {
	if c.mismatches == 0 {
		c.firstDiff = msg
	}
	c.mismatches++
}

// checkSweeps compares every sweep's report with the first: with the
// same seed they must be identical. It returns how many differ.
func checkSweeps(reports []string) int {
	bad := 0
	for _, r := range reports[1:] {
		if r != reports[0] {
			bad++
		}
	}
	return bad
}

func (c *chaos) verify(traced bool) (int, []string) {
	if traced {
		if c.mismatches > 0 {
			return 1, []string{fmt.Sprintf("traced re-drive disagrees with RunChaos on %d decisions; first: %s", c.mismatches, c.firstDiff)}
		}
		return 0, nil
	}
	if len(c.reports) == 0 {
		return 0, nil
	}
	if bad := checkSweeps(c.reports); bad > 0 {
		return bad, []string{fmt.Sprintf("%d of %d sweeps with seed %d produced a report different from the first", bad, len(c.reports), c.seed)}
	}
	return 0, nil
}

func (c *chaos) dropRecords() { c.reports = nil }

func (c *chaos) layerMetrics(m metricSet, base *phaseResult) {
	m.set("sweep_s", base.p50us/1e6, "s")
	probePredictAll(m, foldModels(c.ev), sampleRunsOf(c.ev.Profiles))
	probeFaultAt(m, c.ev, c.scenarios, c.seed)
}

// probeFaultAt times (*fault.Injector).At at the SMU seam on the keys a
// sweep's naive and hardened consumers use.
func probeFaultAt(m metricSet, ev *eval.Evaluation, scenarios []fault.Scenario, seed int64) {
	var keys []string
	for _, kp := range ev.Profiles {
		for capIdx := range kp.Frontier.Points() {
			for _, posture := range []string{"naive", "hard"} {
				keys = append(keys, fault.EventKey(chaosKey(kp.KernelID, capIdx, sched.MethodModelFL, posture), capIdx))
			}
		}
	}
	var perCall []float64
	for _, sc := range scenarios {
		inj := fault.NewInjector(sc, seed)
		t0 := time.Now()
		for step, k := range keys {
			inj.At(fault.SiteSMU, k, step%8)
		}
		perCall = append(perCall, float64(time.Since(t0).Nanoseconds())/float64(len(keys)))
	}
	m.set("fault.at_ns", median64(perCall), "ns")
}

func (c *chaos) close() {}
