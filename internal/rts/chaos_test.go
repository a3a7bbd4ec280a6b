package rts

import (
	"math"
	"reflect"
	"testing"

	"acsel/internal/apu"
	"acsel/internal/fault"
)

func TestCapValidationRejectsNonFinite(t *testing.T) {
	m, _ := trainedModel(t)
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3, 0} {
		if _, err := New(m, Options{CapW: w}); err == nil {
			t.Errorf("New accepted cap %v", w)
		}
	}
	rt, err := New(m, Options{CapW: 24})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3, 0} {
		if err := rt.SetCap(w); err == nil {
			t.Errorf("SetCap accepted %v", w)
		}
	}
	if got := rt.Cap(); got != 24 {
		t.Errorf("rejected caps leaked through: cap = %v", got)
	}
}

func TestRungString(t *testing.T) {
	if RungModel.String() != "model" || RungModelFL.String() != "model+fl" || RungMinPower.String() != "min-power" {
		t.Fatal("rung strings")
	}
	if Rung(9).String() == "" {
		t.Fatal("unknown rung renders empty")
	}
}

// chaosRun drives every held-out kernel iters times under a scenario
// and returns the runtime.
func chaosRun(t *testing.T, scenario string, seed int64, capW float64, iters int) *Runtime {
	t.Helper()
	m, held := trainedModel(t)
	sc, ok := fault.ScenarioByName(scenario)
	if !ok {
		t.Fatalf("unknown scenario %q", scenario)
	}
	rt, err := New(m, Options{CapW: capW, Faults: fault.NewInjector(sc, seed)})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range held {
		for i := 0; i < iters; i++ {
			if _, err := rt.RunKernel(k); err != nil {
				t.Fatalf("%s iter %d under %s: %v", k.Name, i, scenario, err)
			}
		}
	}
	return rt
}

func TestChaosReplayIsBitIdentical(t *testing.T) {
	a := chaosRun(t, "blackout", 7, 22, 12)
	b := chaosRun(t, "blackout", 7, 22, 12)
	if !reflect.DeepEqual(a.Steps(), b.Steps()) {
		t.Error("same scenario+seed produced different step histories")
	}
	if !reflect.DeepEqual(a.Summarize(), b.Summarize()) {
		t.Error("same scenario+seed produced different summaries")
	}
	c := chaosRun(t, "blackout", 8, 22, 12)
	if reflect.DeepEqual(a.Steps(), c.Steps()) {
		t.Error("different seed replayed the same fault schedule")
	}
}

func TestSensorDropoutSurvivedAndAccounted(t *testing.T) {
	rt := chaosRun(t, "sensor-dropout", 3, 24, 15)
	sum := rt.Summarize()
	if sum.Health == nil {
		t.Fatal("no health map under fault injection")
	}
	totalDropouts := 0
	for _, h := range sum.Health {
		totalDropouts += h.Dropouts
	}
	// 20% dropout over 8 kernels × 15 iterations must fire many times.
	if totalDropouts == 0 {
		t.Error("sensor-dropout scenario produced zero dropouts")
	}
	// Bounded re-reads recover most dropouts; only unrecovered ones
	// surface as SensorLost steps, and none may count as violations of
	// record: lost steps carry the model's estimate.
	for _, s := range rt.Steps() {
		if s.SensorLost && s.PowerW < 0 {
			t.Errorf("lost-sensor step has negative power estimate: %+v", s)
		}
	}
}

func TestStuckSensorWalksDownLadder(t *testing.T) {
	// sensor-stuck pins readings at 9 W — plausible (under the sanity
	// bound) but far from predictions, so only the divergence watchdog
	// can catch it.
	rt := chaosRun(t, "sensor-stuck", 1, 24, 25)
	sum := rt.Summarize()
	if sum.Demotions == 0 {
		t.Error("stuck sensor never demoted any kernel")
	}
	if sum.Quarantined != 0 {
		t.Errorf("stuck-at-9W readings should pass the sanity gate, got %d quarantined", sum.Quarantined)
	}
}

func TestSpikeQuarantinedBySanityGate(t *testing.T) {
	// sensor-spike multiplies readings ×8 (≥96 W), beyond the 120 W
	// plausibility bound for high-power configs — those readings must be
	// quarantined, not fed to the limiter, and excluded from Violations.
	rt := chaosRun(t, "sensor-spike", 2, 30, 20)
	sum := rt.Summarize()
	quarantinedSteps := 0
	for _, s := range rt.Steps() {
		if s.Quarantined {
			quarantinedSteps++
			if s.PowerW > 120 {
				t.Errorf("quarantined step leaked implausible power %v into the record", s.PowerW)
			}
		}
	}
	if quarantinedSteps != sum.Quarantined {
		t.Errorf("summary quarantined %d, steps show %d", sum.Quarantined, quarantinedSteps)
	}
}

func TestPStateFlakyRetriesAndSurvives(t *testing.T) {
	rt := chaosRun(t, "pstate-flaky", 5, 24, 15)
	sum := rt.Summarize()
	if sum.ApplyRetries == 0 {
		t.Error("flaky P-state scenario triggered zero apply retries")
	}
	if rt.PStates().FailedApplies() == 0 {
		t.Error("manager recorded no failed applies")
	}
	for _, h := range sum.Health {
		if h.ApplyRetries > 0 && h.BackoffSec <= 0 {
			t.Error("retries booked no backoff")
		}
	}
}

func TestLadderDemoteAndPromoteMechanics(t *testing.T) {
	// Drive the ladder directly for deterministic coverage of the
	// demote → floor → promote cycle.
	m, held := trainedModel(t)
	rt, err := New(m, Options{CapW: 24, Watchdog: true})
	if err != nil {
		t.Fatal(err)
	}
	k := held[0]
	for i := 0; i < 3; i++ {
		if _, err := rt.RunKernel(k); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.kernels[k.ID()]
	if st.rung != RungModel {
		t.Fatalf("base rung = %v", st.rung)
	}
	modelPin := st.pinned

	rt.demote(st, 24)
	if st.rung != RungModelFL || st.pinned != modelPin {
		t.Fatalf("first demotion: rung %v pinned %v", st.rung, st.pinned)
	}
	rt.demote(st, 24)
	if st.rung != RungMinPower {
		t.Fatalf("second demotion: rung %v", st.rung)
	}
	floorCfg, err := m.Space.ByID(st.pred.MinPowerID)
	if err != nil {
		t.Fatal(err)
	}
	if st.pinned != floorCfg {
		t.Errorf("min-power rung pinned %v, floor is %v", st.pinned, floorCfg)
	}
	// A cap change while floored must not climb off the floor.
	if err := rt.reselect(st, 30); err != nil {
		t.Fatal(err)
	}
	if st.pinned != floorCfg {
		t.Error("cap change unfloored a min-power kernel")
	}
	// Demoting at the floor is a no-op.
	rt.demote(st, 24)
	if st.rung != RungMinPower || st.demotions != 2 {
		t.Errorf("floor demotion moved state: rung %v demotions %d", st.rung, st.demotions)
	}

	rt.promote(st, 24)
	if st.rung != RungModelFL || st.recoveries != 1 {
		t.Fatalf("promotion: rung %v recoveries %d", st.rung, st.recoveries)
	}
	if st.pinned == floorCfg && st.pinned != modelPin {
		t.Error("promotion did not re-select off the floor")
	}
	rt.promote(st, 24)
	if st.rung != RungModel {
		t.Fatalf("second promotion: rung %v", st.rung)
	}
	// Promoting past the base rung is a no-op.
	rt.promote(st, 24)
	if st.rung != RungModel || st.recoveries != 2 {
		t.Errorf("over-promotion moved state: rung %v recoveries %d", st.rung, st.recoveries)
	}

	h, ok := rt.HealthFor(k.ID())
	if !ok || h.Demotions != 2 || h.Recoveries != 2 {
		t.Errorf("health = %+v ok=%v", h, ok)
	}
	if _, ok := rt.HealthFor("nope"); ok {
		t.Error("health for unknown kernel")
	}
}

func TestFLBaseRungWithOptionOn(t *testing.T) {
	m, held := trainedModel(t)
	rt, err := New(m, Options{CapW: 24, FL: true, Watchdog: true})
	if err != nil {
		t.Fatal(err)
	}
	k := held[1]
	for i := 0; i < 3; i++ {
		if _, err := rt.RunKernel(k); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.kernels[k.ID()]
	if st.rung != RungModelFL || st.baseRung != RungModelFL {
		t.Errorf("FL option: rung %v base %v, want model+fl", st.rung, st.baseRung)
	}
	// Recovery must stop at the FL base rung, never below it.
	rt.demote(st, 24)
	rt.promote(st, 24)
	rt.promote(st, 24)
	if st.rung != RungModelFL {
		t.Errorf("recovered past the base rung to %v", st.rung)
	}
}

func TestWatchdogOnlyRunMatchesCleanSteps(t *testing.T) {
	// The armed plumbing (retry-capable apply and measure paths) must
	// not change what executes on a healthy system: with the ladder
	// held observation-only (demotion threshold out of reach), an armed
	// run is bit-identical to a clean one. (With demotion live, an
	// armed run MAY differ — reacting to genuine cap violations is the
	// watchdog's job.)
	m, held := trainedModel(t)
	clean, err := New(m, Options{CapW: 24})
	if err != nil {
		t.Fatal(err)
	}
	armed, err := New(m, Options{CapW: 24, Watchdog: true, DemoteAfter: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range held[:3] {
		for i := 0; i < 6; i++ {
			if _, err := clean.RunKernel(k); err != nil {
				t.Fatal(err)
			}
			if _, err := armed.RunKernel(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	cs, as := clean.Steps(), armed.Steps()
	if len(cs) != len(as) {
		t.Fatalf("step counts differ: %d vs %d", len(cs), len(as))
	}
	for i := range cs {
		if cs[i].Config != as[i].Config || cs[i].PowerW != as[i].PowerW || cs[i].TimeSec != as[i].TimeSec { //lint:ignore floatcmp identical runs must agree bit-for-bit
			t.Errorf("step %d diverged: clean %+v armed %+v", i, cs[i], as[i])
		}
	}
	if s := armed.Summarize(); s.Demotions != 0 || s.Quarantined != 0 || s.SensorLost != 0 {
		t.Errorf("healthy armed run reported faults: %+v", s)
	}
}

func TestBlackoutKeepsRuntimeAlive(t *testing.T) {
	// Every seam faulting at once: the runtime must never return an
	// error, and untrusted steps must not count as violations.
	rt := chaosRun(t, "blackout", 11, 22, 15)
	sum := rt.Summarize()
	if sum.Steps == 0 {
		t.Fatal("no steps recorded")
	}
	for _, s := range rt.Steps() {
		if !s.Trusted() && !s.UnderCap && s.PowerW > 22 {
			// Untrusted steps carry estimates; an estimate over cap is
			// possible but must never have been a sensor claim.
			if s.PowerW > 120 {
				t.Errorf("untrusted step carries raw sensor claim: %+v", s)
			}
		}
	}
	if sum.Health == nil {
		t.Fatal("blackout run has no health map")
	}
}

func TestSampleConfigsUnchangedUnderFaults(t *testing.T) {
	// Fault injection must not change the adaptation protocol itself:
	// the first two iterations still run the paper's sample configs.
	rt := chaosRun(t, "blackout", 4, 24, 3)
	for _, s := range rt.Steps() {
		switch s.Phase {
		case PhaseSampleCPU:
			if s.Config != apu.SampleConfigCPU() {
				t.Errorf("CPU sample ran %v", s.Config)
			}
		case PhaseSampleGPU:
			if s.Config != apu.SampleConfigGPU() {
				t.Errorf("GPU sample ran %v", s.Config)
			}
		}
	}
}
