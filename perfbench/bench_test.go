package main

import (
	"encoding/json"
	"flag"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/cases.sha256 from the current program")

// benchmarkSpec reads the metric names BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (e2e, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads() {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return e2e, perLayer
}

func metricNames(m metricSet) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got metricSet, want []string) {
	t.Helper()
	w := append([]string(nil), want...)
	sort.Strings(w)
	if g := metricNames(got); strings.Join(g, ",") != strings.Join(w, ",") {
		t.Errorf("%s metrics\n got %v\nwant %v", what, g, w)
	}
	for n, v := range got {
		if v.Unit == "" {
			t.Errorf("%s metric %s has no unit", what, n)
		}
	}
}

func smallConfig(t *testing.T) config {
	return config{seed: 3, seconds: 100 * time.Millisecond, outDir: t.TempDir(), setupReps: 1, small: true}
}

// TestSmokeWorkloads runs every workload at smoke-test size, untraced
// and traced, and checks that each passes its output checks and
// reports exactly the metrics BENCHMARK.json declares.
func TestSmokeWorkloads(t *testing.T) {
	e2e, perLayer := benchmarkSpec(t)
	for _, wl := range workloads() {
		wl := wl
		for _, traced := range []bool{false, true} {
			res, err := run(wl, smallConfig(t), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if traced {
				sameNames(t, wl.name+" per-layer", res.Metrics, perLayer)
			} else {
				sameNames(t, wl.name+" end-to-end", res.Metrics, e2e)
				for n, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, n, v.Value)
					}
				}
			}
		}
	}
}

// TestReferenceDigest checks (or with -update rewrites) the stored
// digest of the evaluation's cases.
func TestReferenceDigest(t *testing.T) {
	inst, err := setupPipeline(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	p := inst.(*pipeline)
	if *update {
		if err := os.WriteFile("testdata/cases.sha256", []byte(p.last.cases+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(p.setupProblems) > 0 {
		t.Fatalf("set-up repetition fails its checks: %v", p.setupProblems)
	}
}

func TestTable3CheckFires(t *testing.T) {
	inst, err := setupPipeline(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	out := *inst.(*pipeline).last
	if probs := checkPipelineOut(&out, out.steps); len(probs) != 0 {
		t.Fatalf("unmutated output fails: %v", probs)
	}
	lines := strings.Split(out.table3, "\n")
	lines[3] = strings.Replace(lines[3], "52", "53", 1) // the Model row's % under-limit
	out.table3 = strings.Join(lines, "\n")
	if probs := checkPipelineOut(&out, out.steps); len(probs) != 1 || !strings.Contains(probs[0], "Table III") {
		t.Fatalf("mutated Table III line not caught: %v", probs)
	}
	out = *inst.(*pipeline).last
	if probs := checkPipelineOut(&out, "another step sequence"); len(probs) != 1 {
		t.Fatalf("different rts step sequence not caught: %v", probs)
	}
}

// servePhase sets up a serve workload and runs one short untraced phase.
func servePhase(t *testing.T, setup func(config) (instance, error)) *serve {
	t.Helper()
	inst, err := setup(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.close)
	wl := workload{callers: 2, minOps: reloadEvery + 100} // every caller reloads once
	ph := runPhase(inst, wl, 0, wl.minOps, nil)
	if len(ph.errMsgs) != 0 {
		t.Fatalf("phase errors: %v", ph.errMsgs)
	}
	s := inst.(*serve)
	if bad, probs := s.checkResponses(); bad != 0 {
		t.Fatalf("clean phase fails its check: %v", probs)
	}
	return s
}

func TestFlippedSelectionCaught(t *testing.T) {
	s := servePhase(t, setupServeHot)
	k := s.streams[1][7]
	r, ok := s.expectedResponse(k, 0)
	if !ok {
		t.Fatal("no oracle answer")
	}
	r.Selection.ConfigID ^= 1
	s.digests[1][7] = respDigest(&r)
	if bad, _ := s.checkResponses(); bad != 1 {
		t.Fatalf("flipped config ID: %d failures, want 1", bad)
	}
}

func TestDroppedResponseCaught(t *testing.T) {
	s := servePhase(t, setupServeChurn)
	s.digests[0] = s.digests[0][:len(s.digests[0])-1]
	if bad, _ := s.checkResponses(); bad != 1 {
		t.Fatalf("dropped response: %d failures, want 1", bad)
	}
}

func TestNondeterministicSweepCaught(t *testing.T) {
	inst, err := setupChaos(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	c := inst.(*chaos)
	c.startPhase()
	for i := 0; i < 2; i++ {
		if _, err := c.op(nil, 0, i); err != nil {
			t.Fatal(err)
		}
	}
	if bad, probs := c.verify(false); bad != 0 {
		t.Fatalf("two sweeps with one seed differ: %v", probs)
	}
	c.reports[1] += "\n"
	if bad, _ := c.verify(false); bad != 1 {
		t.Fatalf("non-deterministic second sweep: %d failures, want 1", bad)
	}
}
