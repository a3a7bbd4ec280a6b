package core

import (
	"bytes"
	"math"
	"testing"
)

// TestSelectAmongMatchesSelectUnderCap pins the refactor contract:
// selecting under a cap from the prediction table, Predict(sr).Select,
// must be exactly PredictAll followed by SelectAmong, so any caller
// holding cached predictions reproduces the direct selection bitwise,
// and Predict's floor must be the fallback SelectAmong picks.
func TestSelectAmongMatchesSelectUnderCap(t *testing.T) {
	profs, m, _ := trained(t)
	for _, kp := range profs[:6] {
		sr := SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample}
		preds, c, err := m.PredictAll(sr)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := m.Predict(sr)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Cluster != c || len(pred.Preds) != len(preds) {
			t.Fatalf("%s: Predict cluster %d / %d preds, PredictAll %d / %d",
				kp.KernelID, pred.Cluster, len(pred.Preds), c, len(preds))
		}
		for _, z := range []float64{0, 1.5} {
			for cap := 2.0; cap <= 40; cap += 1.7 {
				direct, err := pred.Select(cap, z)
				if err != nil {
					t.Fatal(err)
				}
				got, err := SelectAmong(preds, c, cap, z)
				if err != nil {
					t.Fatal(err)
				}
				if got != direct {
					t.Fatalf("%s cap=%v z=%v: SelectAmong %+v != Predict.Select %+v",
						kp.KernelID, cap, z, got, direct)
				}
			}
		}
		floor, err := SelectAmong(preds, c, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if floor.ConfigID != pred.MinPowerID || pred.MinPowerW() != MinPredictedPowerW(preds) {
			t.Fatalf("%s: floor %d (%v W), MinPowerID %d (%v W)", kp.KernelID,
				floor.ConfigID, MinPredictedPowerW(preds), pred.MinPowerID, pred.MinPowerW())
		}
	}
}

func TestSelectAmongEmptyPredictions(t *testing.T) {
	if _, err := SelectAmong(nil, 0, 20, 0); err == nil {
		t.Fatal("empty predictions accepted")
	}
}

// TestMinPredictedPowerW checks the feasibility floor agrees with the
// fallback selection: an unsatisfiable cap must land on the
// minimum-power configuration, whose predicted power is the floor.
func TestMinPredictedPowerW(t *testing.T) {
	profs, m, _ := trained(t)
	kp := profs[0]
	sr := SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample}
	preds, _, err := m.PredictAll(sr)
	if err != nil {
		t.Fatal(err)
	}
	minW := MinPredictedPowerW(preds)
	if math.IsInf(minW, 1) || minW < minPredictedPowerW {
		t.Fatalf("MinPredictedPowerW = %v", minW)
	}
	pred, err := m.Predict(sr)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := pred.Select(minW-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sel.MeetsCapPredicted {
		t.Fatalf("cap below the floor reported as met: %+v", sel)
	}
	if sel.Predicted.PowerW != minW {
		t.Fatalf("fallback power %v != floor %v", sel.Predicted.PowerW, minW)
	}
}

// TestModelHashStableAndSensitive: the content address is deterministic
// across calls and across a Save/Load round trip, and differs between
// models trained with different options.
func TestModelHashStableAndSensitive(t *testing.T) {
	profs, m, space := trained(t)
	h1, err := m.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := m.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || len(h1) != 64 {
		t.Fatalf("hash not stable: %q vs %q", h1, h2)
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h3, err := loaded.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 != h1 {
		t.Fatalf("hash changed across Save/Load: %q vs %q", h3, h1)
	}

	opts := m.Options
	opts.Seed++
	other, err := Train(space, profs, opts)
	if err != nil {
		t.Fatal(err)
	}
	h4, err := other.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h4 == h1 {
		t.Fatal("models trained with different seeds share a hash")
	}
}
