package rts

import (
	"math"
	"reflect"
	"testing"

	"acsel/internal/fault"
	"acsel/internal/kernels"
)

// driveSteps executes global step indices [from, to) in epoch order:
// step s runs kernel ks[s mod len(ks)]. Both the sequential and the
// interrupted runs use this driver, so their step histories are
// directly comparable.
func driveSteps(t *testing.T, rt *Runtime, ks []kernels.Kernel, from, to int) {
	t.Helper()
	for s := from; s < to; s++ {
		if _, err := rt.RunKernel(ks[s%len(ks)]); err != nil {
			t.Fatalf("step %d (%s): %v", s, ks[s%len(ks)].Name, err)
		}
	}
}

// restoreInto round-trips a snapshot through its journal-record
// encoding into a fresh runtime with the same model and options.
func restoreInto(t *testing.T, snap *Snapshot, opts Options) *Runtime {
	t.Helper()
	m, _ := trainedModel(t)
	rec, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatalf("encoding snapshot: %v", err)
	}
	decoded, err := DecodeSnapshot(rec)
	if err != nil {
		t.Fatalf("decoding snapshot: %v", err)
	}
	rt, err := New(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Restore(decoded); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return rt
}

// TestSnapshotRestoreEquivalence is the crash-safety contract: cutting
// a run at ANY step boundary, snapshotting, restoring into a fresh
// runtime, and continuing must reproduce the uninterrupted run's step
// history and summary exactly (reflect.DeepEqual), under fault
// injection exercising quarantine, retries, and ladder moves.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	m, held := trainedModel(t)
	sc, ok := fault.ScenarioByName("blackout")
	if !ok {
		t.Fatal("no blackout scenario")
	}
	opts := Options{CapW: 22, Faults: fault.NewInjector(sc, 7)}
	total := len(held) * 6

	seq, err := New(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	driveSteps(t, seq, held, 0, total)
	wantSteps := seq.Steps()
	wantSum := seq.Summarize()

	// Cut points cover: before any step, mid-sampling (steps 1 and
	// len+1 are inside the two-iteration sample phase), just after
	// adaptation, deep into pinned execution, and the final step.
	for _, cut := range []int{0, 1, len(held) + 1, 2*len(held) + 3, total / 2, total - 1} {
		rt, err := New(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		driveSteps(t, rt, held, 0, cut)
		restored := restoreInto(t, rt.Snapshot(), opts)
		driveSteps(t, restored, held, cut, total)
		if !reflect.DeepEqual(restored.Steps(), wantSteps) {
			t.Errorf("cut %d: restored step history diverged from sequential run", cut)
		}
		if got := restored.Summarize(); !reflect.DeepEqual(got, wantSum) {
			t.Errorf("cut %d: restored summary diverged:\ngot  %+v\nwant %+v", cut, got, wantSum)
		}
	}
}

// TestSnapshotRestoreEquivalenceClean pins the same contract on a
// clean, watchdog-disarmed runtime (Health nil in both summaries, no
// robustness annotations anywhere).
func TestSnapshotRestoreEquivalenceClean(t *testing.T) {
	m, held := trainedModel(t)
	opts := Options{CapW: 24, FL: true}
	total := len(held) * 4

	seq, err := New(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	driveSteps(t, seq, held, 0, total)

	cut := len(held) + 2
	rt, err := New(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	driveSteps(t, rt, held, 0, cut)
	restored := restoreInto(t, rt.Snapshot(), opts)
	driveSteps(t, restored, held, cut, total)
	if !reflect.DeepEqual(restored.Steps(), seq.Steps()) {
		t.Error("clean run: restored step history diverged")
	}
	if got, want := restored.Summarize(), seq.Summarize(); !reflect.DeepEqual(got, want) {
		t.Errorf("clean run: restored summary diverged:\ngot  %+v\nwant %+v", got, want)
	}
	if restored.Summarize().Health != nil {
		t.Error("clean restored runtime grew a Health map")
	}
}

// TestRestoredSummaryIdenticalAtCutPoint is the satellite regression:
// Summarize and HealthFor of a just-restored runtime must equal the
// originals byte for byte — no map-iteration or zero-value drift — at
// a cut point where some kernels are adapted and some are mid-sample.
func TestRestoredSummaryIdenticalAtCutPoint(t *testing.T) {
	m, held := trainedModel(t)
	sc, _ := fault.ScenarioByName("pstate-flaky")
	opts := Options{CapW: 20, Faults: fault.NewInjector(sc, 3)}
	rt, err := New(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	driveSteps(t, rt, held, 0, len(held)*2+1)
	restored := restoreInto(t, rt.Snapshot(), opts)
	if !reflect.DeepEqual(restored.Summarize(), rt.Summarize()) {
		t.Errorf("summary drift:\ngot  %+v\nwant %+v", restored.Summarize(), rt.Summarize())
	}
	if !reflect.DeepEqual(restored.Steps(), rt.Steps()) {
		t.Error("step history drift")
	}
	for _, k := range held {
		got, gok := restored.HealthFor(k.ID())
		want, wok := rt.HealthFor(k.ID())
		if gok != wok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: HealthFor drift: got %+v/%v want %+v/%v", k.ID(), got, gok, want, wok)
		}
		gcfg, gcl, gok := restored.SelectionFor(k.ID())
		wcfg, wcl, wok := rt.SelectionFor(k.ID())
		if gok != wok || gcl != wcl || gcfg != wcfg {
			t.Errorf("%s: SelectionFor drift", k.ID())
		}
	}
	if !reflect.DeepEqual(restored.AdaptedKernels(), rt.AdaptedKernels()) {
		t.Error("AdaptedKernels drift")
	}
}

// TestSnapshotOfFreshRuntime pins the zero-state edge: an untouched
// runtime snapshots to no kernels and nil steps, and restoring that
// snapshot reproduces the untouched state (Steps nil, not empty).
func TestSnapshotOfFreshRuntime(t *testing.T) {
	m, _ := trainedModel(t)
	rt, err := New(m, Options{CapW: 24})
	if err != nil {
		t.Fatal(err)
	}
	snap := rt.Snapshot()
	if len(snap.Kernels) != 0 || snap.Steps != nil {
		t.Errorf("fresh snapshot: %+v", snap)
	}
	restored := restoreInto(t, snap, Options{CapW: 24})
	if got := restored.Steps(); got != nil {
		t.Errorf("restored fresh runtime has steps %v", got)
	}
	if !reflect.DeepEqual(restored.Summarize(), rt.Summarize()) {
		t.Error("fresh summary drift")
	}
}

// TestRestoreCarriesCap ensures the snapshot's cap wins over the
// options the fresh runtime was built with.
func TestRestoreCarriesCap(t *testing.T) {
	m, held := trainedModel(t)
	rt, err := New(m, Options{CapW: 24})
	if err != nil {
		t.Fatal(err)
	}
	driveSteps(t, rt, held, 0, 3)
	if err := rt.SetCap(17); err != nil {
		t.Fatal(err)
	}
	restored := restoreInto(t, rt.Snapshot(), Options{CapW: 24})
	if got := restored.Cap(); got != 17 {
		t.Errorf("restored cap = %v, want 17", got)
	}
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	m, held := trainedModel(t)
	rt, err := New(m, Options{CapW: 24})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*Snapshot{
		"nil":           nil,
		"wrong version": {Version: 99, CapW: 24},
		"nan cap":       {Version: SnapshotVersion, CapW: math.NaN()},
		"zero cap":      {Version: SnapshotVersion, CapW: 0},
		"empty key": {Version: SnapshotVersion, CapW: 24,
			Kernels: []KernelCheckpoint{{Key: ""}}},
		"duplicate key": {Version: SnapshotVersion, CapW: 24,
			Kernels: []KernelCheckpoint{{Key: "a"}, {Key: "a"}}},
	}
	// An adapted kernel whose recorded floor the model does not predict
	// was snapshotted over another model.
	adapted, err := New(m, Options{CapW: 24})
	if err != nil {
		t.Fatal(err)
	}
	driveSteps(t, adapted, held[:1], 0, 2)
	cases["foreign floor"] = adapted.Snapshot()
	cases["foreign floor"].Kernels[0].MinPowerID++
	for name, snap := range cases {
		if err := rt.Restore(snap); err == nil {
			t.Errorf("%s: Restore accepted %+v", name, snap)
		}
	}
}

func TestDecodeRejectsWrongRecordType(t *testing.T) {
	rec, err := EncodeStep(Step{Kernel: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(rec); err == nil {
		t.Error("DecodeSnapshot accepted a step record")
	}
	srec, err := EncodeSnapshot(&Snapshot{Version: SnapshotVersion, CapW: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeStep(srec); err == nil {
		t.Error("DecodeStep accepted a snapshot record")
	}
	s, err := DecodeStep(rec)
	if err != nil || s.Kernel != "k" {
		t.Errorf("step round trip: %+v, %v", s, err)
	}
}
