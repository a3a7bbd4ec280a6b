package acsel_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"acsel/internal/core"
	"acsel/internal/kernels"
	"acsel/internal/query"
	"acsel/internal/rts"
	"acsel/internal/sched"
)

// TestSelectionPathsAgree is the cross-path differential test: for every
// held-out kernel with the fold model that never saw it, every cap on a
// grid from below the predicted floor to above the top configuration,
// and z ∈ {0, 1.5}, the four consumers of the prediction table pick the
// same configuration as core's Predict(sr).Select — sched's Model
// decision, the configuration the runtime pins after adaptation and
// after each cap change, and the query service in process and over
// POST /v1/select, whose Selections must be bitwise-equal. Caps lie on
// the service's 1/32 W quantization grid, so every path sees the same
// cap.
func TestSelectionPathsAgree(t *testing.T) {
	ev, _ := sharedEval(t)
	var caps []float64
	for c := 0.25; c <= 60; c += 0.25 {
		caps = append(caps, c)
	}
	var benches []string
	byBench := map[string][]kernels.Kernel{}
	for _, c := range kernels.Combos() {
		if byBench[c.Benchmark] == nil {
			benches = append(benches, c.Benchmark)
		}
		byBench[c.Benchmark] = append(byBench[c.Benchmark], c.Kernels...)
	}
	truthOf := map[string]sched.Truth{}
	for _, kp := range ev.Profiles {
		truthOf[kp.KernelID] = sched.ProfileTruth{Profile: kp}
	}
	ctx := context.Background()
	checked := 0
	for _, bench := range benches {
		ks, m := byBench[bench], ev.FoldModels[bench]
		svc, err := query.NewService(m, query.Options{Kernels: ks})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		handler := query.NewHandler(svc)
		for _, z := range []float64{0, 1.5} {
			runner := &sched.Runner{Space: m.Space, Model: m, VarAwareZ: z}
			rt, err := rts.New(m, rts.Options{CapW: caps[0], VarAwareZ: z})
			if err != nil {
				t.Fatal(err)
			}
			preds := make(map[string]core.Predicted, len(ks))
			for _, k := range ks {
				sr, ok := svc.SampleRuns(k.ID())
				if !ok {
					t.Fatalf("no shard for %s", k.ID())
				}
				if preds[k.ID()], err = m.Predict(sr); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					if _, err := rt.RunKernel(k); err != nil {
						t.Fatal(err)
					}
				}
			}
			for ci, capW := range caps {
				if ci > 0 {
					if err := rt.SetCap(capW); err != nil {
						t.Fatal(err)
					}
				}
				for _, k := range ks {
					id := k.ID()
					want, err := preds[id].Select(capW, z)
					if err != nil {
						t.Fatal(err)
					}
					where := func(path string) string {
						return fmt.Sprintf("%s %s cap=%v z=%v", path, id, capW, z)
					}

					sr, _ := svc.SampleRuns(id)
					d, err := runner.Decide(sched.MethodModel, truthOf[id], sr, capW)
					if err != nil {
						t.Fatal(err)
					}
					if d.ConfigID != want.ConfigID {
						t.Fatalf("%s: sched config %d, core %d", where("sched"), d.ConfigID, want.ConfigID)
					}

					// At the first cap, the pin adaptation chose; after
					// that, the pin the next iteration re-selected and ran.
					if ci > 0 {
						step, err := rt.RunKernel(k)
						if err != nil {
							t.Fatal(err)
						}
						if step.Config != want.Config {
							t.Fatalf("%s: rts ran %v, core %v", where("rts"), step.Config, want.Config)
						}
					}
					cfg, cluster, ok := rt.SelectionFor(id)
					if !ok || cfg != want.Config || cluster != want.Cluster {
						t.Fatalf("%s: rts pinned %v (cluster %d), core %v (cluster %d)",
							where("rts"), cfg, cluster, want.Config, want.Cluster)
					}

					req := query.Request{Kernel: id, CapW: capW, Z: z}
					resp, err := svc.Select(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					if resp.EffectiveCapW != capW || resp.Selection != want {
						t.Fatalf("%s: service %+v at %v W, core %+v", where("query"), resp.Selection, resp.EffectiveCapW, want)
					}
					if resp.MinPowerW != preds[id].MinPowerW() {
						t.Fatalf("%s: service floor %v W, core %v W", where("query"), resp.MinPowerW, preds[id].MinPowerW())
					}

					body, err := json.Marshal(req)
					if err != nil {
						t.Fatal(err)
					}
					rec := httptest.NewRecorder()
					handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, query.PathSelect, bytes.NewReader(body)))
					if rec.Code != http.StatusOK {
						t.Fatalf("%s: HTTP %d: %s", where("http"), rec.Code, rec.Body)
					}
					var wire query.Response
					if err := json.Unmarshal(rec.Body.Bytes(), &wire); err != nil {
						t.Fatal(err)
					}
					if wire.Selection != want {
						t.Fatalf("%s: POST %s %+v, core %+v", where("http"), query.PathSelect, wire.Selection, want)
					}
					checked++
				}
			}
		}
	}
	if want := 2 * len(caps) * len(ev.Profiles); checked != want {
		t.Fatalf("checked %d selections, want %d", checked, want)
	}
}
