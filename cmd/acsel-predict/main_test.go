package main

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"acsel/internal/core"
	"acsel/internal/kernels"
	"acsel/internal/profiler"
	"acsel/internal/query"
)

func trainModel(t *testing.T) *core.Model {
	t.Helper()
	var ks []kernels.Kernel
	for _, c := range kernels.Combos() {
		if c.Benchmark == "LU" {
			continue
		}
		ks = append(ks, c.Kernels...)
	}
	p := profiler.New()
	opts := core.DefaultTrainOptions()
	opts.Iterations = 1
	profs, err := core.Characterize(p, ks, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(p.Space, profs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func writeModel(t *testing.T) string {
	t.Helper()
	m := trainModel(t)
	path := filepath.Join(t.TempDir(), "model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPredictEndToEnd(t *testing.T) {
	model := writeModel(t)
	if err := run(model, "LU/Small/lud", 20, 0, true, ""); err != nil {
		t.Fatal(err)
	}
	// Variance-aware path.
	if err := run(model, "LU/Small/lud", 20, 1.5, false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestPredictErrors(t *testing.T) {
	model := writeModel(t)
	if err := run(model, "", 20, 0, false, ""); err == nil {
		t.Error("missing kernel accepted")
	}
	if err := run(model, "No/Such/Kernel", 20, 0, false, ""); err == nil {
		t.Error("unknown kernel accepted")
	}
	if err := run("/nonexistent/model.json", "LU/Small/lud", 20, 0, false, ""); err == nil {
		t.Error("missing model accepted")
	}
}

// TestPredictInfeasibleCap pins the typed error: a cap below the
// model's minimum feasible predicted power must surface
// core.ErrCapInfeasible, not a silent fallback selection.
func TestPredictInfeasibleCap(t *testing.T) {
	model := writeModel(t)
	err := run(model, "LU/Small/lud", 0.5, 0, false, "")
	if !errors.Is(err, core.ErrCapInfeasible) {
		t.Fatalf("cap 0.5 W: err = %v, want core.ErrCapInfeasible", err)
	}
}

// TestPredictRemoteAgreesWithLocal runs the same queries through the
// local model and through a selection service, asserting the selections
// are identical structs and that the infeasible-cap error is the same
// typed error on both paths.
func TestPredictRemoteAgreesWithLocal(t *testing.T) {
	m := trainModel(t)
	modelPath := writeModel(t)
	const kernelID = "LU/Small/lud"
	k, err := findKernel(kernelID)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := query.NewService(m, query.Options{Kernels: []kernels.Kernel{k}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(query.NewHandler(svc))
	defer srv.Close()

	// The command-level paths succeed and fail identically.
	if err := run(modelPath, kernelID, 20, 0, false, ""); err != nil {
		t.Fatalf("local: %v", err)
	}
	if err := run(modelPath, kernelID, 20, 1.5, false, srv.URL); err != nil {
		t.Fatalf("remote: %v", err)
	}
	lerr := run(modelPath, kernelID, 0.5, 0, false, "")
	rerr := run(modelPath, kernelID, 0.5, 0, false, srv.URL)
	if !errors.Is(lerr, core.ErrCapInfeasible) || !errors.Is(rerr, core.ErrCapInfeasible) {
		t.Fatalf("infeasible cap: local %v, remote %v, want core.ErrCapInfeasible on both", lerr, rerr)
	}

	// The selections themselves agree bitwise. Caps are chosen on the
	// service's quantization grid so the effective cap equals the
	// requested one.
	sr, ok := svc.SampleRuns(kernelID)
	if !ok {
		t.Fatalf("service has no shard for %s", kernelID)
	}
	pred, err := m.Predict(sr)
	if err != nil {
		t.Fatal(err)
	}
	c := &query.Client{BaseURL: srv.URL}
	for _, capW := range []float64{5, 10, 20, 27.5, 40} {
		for _, z := range []float64{0, 1.5} {
			local, err := pred.Select(capW, z)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := c.Select(context.Background(), query.Request{Kernel: kernelID, CapW: capW, Z: z})
			if err != nil {
				t.Fatalf("remote cap=%v z=%v: %v", capW, z, err)
			}
			if resp.EffectiveCapW != capW {
				t.Fatalf("cap %v quantized to %v; pick caps on the grid", capW, resp.EffectiveCapW)
			}
			if resp.Selection != local {
				t.Fatalf("cap=%v z=%v: remote %+v != local %+v", capW, z, resp.Selection, local)
			}
		}
	}
}

func TestFindKernel(t *testing.T) {
	k, err := findKernel("LULESH/Small/CalcQForElems")
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "CalcQForElems" {
		t.Errorf("kernel = %v", k.Name)
	}
}
