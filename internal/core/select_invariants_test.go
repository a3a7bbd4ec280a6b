package core

import (
	"math"
	"testing"
)

// The selection invariants below are stated against the prediction
// table alone, in the exhaustive-search style of an oracle: a feasible
// selection must fit and no fitting configuration may beat it, and two
// selections related by a raised cap or a raised z must move the way
// the growing or shrinking feasible set forces them to.

// checkSelection selects from p and asserts the declarative contract:
// a feasible pick fits the cap, no fitting configuration has a higher
// perf or the same perf at a lower ID, and an infeasible pick means
// nothing fits and the pick is the table's floor, MinPowerID.
func checkSelection(t *testing.T, p Predicted, capW, z float64) Selection {
	t.Helper()
	sel, err := p.Select(capW, z)
	if err != nil {
		t.Fatalf("cap=%v z=%v: %v", capW, z, err)
	}
	if !samePrediction(sel.Predicted, p.Preds[sel.ConfigID]) || sel.Config != p.Preds[sel.ConfigID].Config || sel.Cluster != p.Cluster {
		t.Fatalf("cap=%v z=%v: selection %+v disagrees with its table row", capW, z, sel)
	}
	bound := func(q Prediction) float64 { return q.PowerW + z*q.PowerStd }
	if sel.MeetsCapPredicted && !(bound(sel.Predicted) <= capW) {
		t.Fatalf("cap=%v z=%v: feasible pick %d has bound %v", capW, z, sel.ConfigID, bound(sel.Predicted))
	}
	if !sel.MeetsCapPredicted && sel.ConfigID != p.MinPowerID {
		t.Fatalf("cap=%v z=%v: fallback %d, MinPowerID %d", capW, z, sel.ConfigID, p.MinPowerID)
	}
	for _, q := range p.Preds {
		// NaN and -Inf perf never win a strictly-greater race, so such
		// a row fitting the cap does not make it feasible.
		if !(bound(q) <= capW) || !(q.Perf > math.Inf(-1)) {
			continue
		}
		if !sel.MeetsCapPredicted {
			t.Fatalf("cap=%v z=%v: config %d fits but the selection fell back", capW, z, q.ConfigID)
		}
		if q.Perf > sel.Predicted.Perf || (q.Perf >= sel.Predicted.Perf && q.ConfigID < sel.ConfigID) {
			t.Fatalf("cap=%v z=%v: config %d (perf %v) beats pick %d (perf %v)",
				capW, z, q.ConfigID, q.Perf, sel.ConfigID, sel.Predicted.Perf)
		}
	}
	return sel
}

// samePrediction compares two rows bit for bit, so NaN rows compare
// equal to themselves.
func samePrediction(a, b Prediction) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.ConfigID == b.ConfigID && a.Config == b.Config && same(a.Perf, b.Perf) &&
		same(a.PowerW, b.PowerW) && same(a.PerfStd, b.PerfStd) && same(a.PowerStd, b.PowerStd)
}

// checkFloor asserts MinPowerID is the lowest-power row, NaN never
// winning and the lowest ID winning a tie, and -1 only when no power is
// below +Inf.
func checkFloor(t *testing.T, p Predicted) {
	t.Helper()
	if p.MinPowerID < 0 {
		for _, q := range p.Preds {
			if q.PowerW < math.Inf(1) {
				t.Fatalf("no floor, but config %d predicts %v W", q.ConfigID, q.PowerW)
			}
		}
		if !math.IsInf(p.MinPowerW(), 1) {
			t.Fatalf("no floor, but MinPowerW = %v", p.MinPowerW())
		}
		return
	}
	floor := p.Preds[p.MinPowerID].PowerW
	if math.IsNaN(floor) || p.MinPowerW() != floor || MinPredictedPowerW(p.Preds) != floor {
		t.Fatalf("floor config %d: %v W, MinPowerW %v, MinPredictedPowerW %v",
			p.MinPowerID, floor, p.MinPowerW(), MinPredictedPowerW(p.Preds))
	}
	for _, q := range p.Preds {
		if q.PowerW < floor || (q.PowerW <= floor && q.ConfigID < p.MinPowerID) {
			t.Fatalf("config %d (%v W) undercuts floor %d (%v W)", q.ConfigID, q.PowerW, p.MinPowerID, floor)
		}
	}
}

// checkRaises asserts the metamorphic pair relations. Raising the cap
// only grows the feasible set, so a feasible pick stays feasible and
// its perf never falls. Raising z (PowerStd ≥ 0) only shrinks it, so a
// pick still feasible at the higher z has a bound, PowerW+z·PowerStd at
// that z, no higher than the lower-z pick's; it equals that pick when
// the pick still fits.
func checkRaises(t *testing.T, p Predicted, capW, dCap, z, dz float64) {
	t.Helper()
	base := checkSelection(t, p, capW, z)
	up := checkSelection(t, p, capW+dCap, z)
	if base.MeetsCapPredicted && (!up.MeetsCapPredicted || up.Predicted.Perf < base.Predicted.Perf) {
		t.Fatalf("z=%v: cap %v→%v lowered the pick from %d (perf %v) to %d (perf %v, feasible %v)",
			z, capW, capW+dCap, base.ConfigID, base.Predicted.Perf, up.ConfigID, up.Predicted.Perf, up.MeetsCapPredicted)
	}
	z2 := z + dz
	tight := checkSelection(t, p, capW, z2)
	bound := func(s Selection) float64 { return s.Predicted.PowerW + z2*s.Predicted.PowerStd }
	if tight.MeetsCapPredicted && (!base.MeetsCapPredicted || bound(tight) > bound(base)) {
		t.Fatalf("cap=%v: z %v→%v raised the bound from %v (pick %d) to %v (pick %d)",
			capW, z, z2, bound(base), base.ConfigID, bound(tight), tight.ConfigID)
	}
}

func TestSelectInvariantsOnTrainedKernels(t *testing.T) {
	profs, m, _ := trained(t)
	for _, kp := range profs {
		p, err := m.Predict(SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample})
		if err != nil {
			t.Fatal(err)
		}
		checkFloor(t, p)
		for capW := 0.0; capW <= 60; capW += 0.5 {
			for _, z := range []float64{0, 1.5} {
				checkRaises(t, p, capW, 0.5, z, 1.5)
			}
		}
		// Below the floor nothing fits, at any z.
		for _, z := range []float64{0, 1.5} {
			sel := checkSelection(t, p, p.MinPowerW()-1, z)
			if sel.MeetsCapPredicted || sel.ConfigID != p.MinPowerID {
				t.Fatalf("%s z=%v: infeasible cap selected %+v, MinPowerID %d", kp.KernelID, z, sel, p.MinPowerID)
			}
		}
	}
}

// handTable builds a prediction table from (power, perf, std) rows,
// with its floor computed by the one floor rule.
func handTable(rows ...[3]float64) Predicted {
	preds := make([]Prediction, len(rows))
	for i, r := range rows {
		preds[i] = Prediction{ConfigID: i, PowerW: r[0], Perf: r[1], PowerStd: r[2]}
	}
	return Predicted{Preds: preds, Cluster: 3, MinPowerID: minPowerIndex(preds)}
}

func TestSelectExactPerfTieLowestID(t *testing.T) {
	// Configs 1 and 3 tie on perf; 3 draws less power, but the lower ID
	// wins. Config 2 ties on power with config 0 at the floor.
	p := handTable(
		[3]float64{10, 1, 0},
		[3]float64{20, 2, 0},
		[3]float64{10, 0.5, 0},
		[3]float64{15, 2, 0},
	)
	if sel := checkSelection(t, p, 25, 0); sel.ConfigID != 1 {
		t.Fatalf("perf tie picked %d, want 1", sel.ConfigID)
	}
	if sel := checkSelection(t, p, 18, 0); sel.ConfigID != 3 {
		t.Fatalf("cap 18 picked %d, want 3", sel.ConfigID)
	}
	checkFloor(t, p)
	if sel := checkSelection(t, p, 5, 0); sel.MeetsCapPredicted || sel.ConfigID != 0 {
		t.Fatalf("infeasible cap picked %+v, want the floor tie's lowest ID 0", sel)
	}
}

func TestSelectFloorSkipsNaNPower(t *testing.T) {
	// Config 0's NaN power must neither win the floor nor fit any cap.
	p := handTable(
		[3]float64{math.NaN(), 9, 0},
		[3]float64{12, 1, 0},
		[3]float64{8, 0.5, 0},
		[3]float64{8, 0.7, 0},
	)
	checkFloor(t, p)
	if p.MinPowerID != 2 || p.MinPowerW() != 8 {
		t.Fatalf("floor %d at %v W, want config 2 at 8 W", p.MinPowerID, p.MinPowerW())
	}
	sel := checkSelection(t, p, 4, 0)
	if sel.MeetsCapPredicted || sel.ConfigID != 2 {
		t.Fatalf("infeasible cap picked %+v, want fallback 2", sel)
	}
	if sel := checkSelection(t, p, 100, 0); sel.ConfigID != 1 {
		t.Fatalf("cap 100 picked %d, want 1 (config 0's NaN power never fits)", sel.ConfigID)
	}
	if none := handTable([3]float64{math.NaN(), 1, 0}); none.MinPowerID != -1 {
		t.Fatalf("all-NaN table floor %d, want -1", none.MinPowerID)
	}
}

// tableFromBytes decodes a fuzz byte string into a prediction table,
// three bytes per row on coarse grids so exact perf and power ties are
// common: power 3 + b/8 W (255 → NaN), perf b/16 (255 → NaN), and
// PowerStd b/64 (never negative, as a residual std is).
func tableFromBytes(data []byte) Predicted {
	var rows [][3]float64
	for ; len(data) >= 3 && len(rows) < 64; data = data[3:] {
		pow, perf := 3+float64(data[0])/8, float64(data[1])/16
		if data[0] == 255 {
			pow = math.NaN()
		}
		if data[1] == 255 {
			perf = math.NaN()
		}
		rows = append(rows, [3]float64{pow, perf, float64(data[2]) / 64})
	}
	return handTable(rows...)
}

// FuzzSelectAmong drives arbitrary tables, caps and margins through the
// selection and checks every invariant above on each input.
func FuzzSelectAmong(f *testing.F) {
	f.Add([]byte{255, 200, 0, 40, 16, 10, 40, 16, 0, 20, 8, 64}, 8.0, 1.0, 0.0, 1.5)
	f.Add([]byte{80, 32, 3, 80, 32, 3, 0, 1, 0}, 12.0, 0.03125, 1.5, 0.5)
	f.Add([]byte{255, 255, 255}, 20.0, 5.0, 0.0, 0.0)
	f.Add([]byte{48, 255, 48, 48, 16, 0}, -7.0, 5.0, 0.0, 47.0)
	f.Fuzz(func(t *testing.T, data []byte, capW, dCap, z, dz float64) {
		for _, v := range []float64{capW, dCap, z, dz} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		dCap, z, dz = math.Abs(dCap), math.Abs(z), math.Abs(dz)
		p := tableFromBytes(data)
		if len(p.Preds) == 0 {
			if _, err := p.Select(capW, z); err == nil {
				t.Fatal("empty table selected")
			}
			return
		}
		checkFloor(t, p)
		if p.MinPowerID < 0 {
			if _, err := p.Select(capW, z); err == nil {
				t.Fatal("a table with no finite power selected")
			}
			return
		}
		direct, err := SelectAmong(p.Preds, p.Cluster, capW, z)
		if err != nil {
			t.Fatal(err)
		}
		sel := checkSelection(t, p, capW, z)
		if sel.ConfigID != direct.ConfigID || sel.MeetsCapPredicted != direct.MeetsCapPredicted ||
			sel.Cluster != direct.Cluster || !samePrediction(sel.Predicted, direct.Predicted) {
			t.Fatalf("Select %+v != SelectAmong %+v", sel, direct)
		}
		checkRaises(t, p, capW, dCap, z, dz)
	})
}
