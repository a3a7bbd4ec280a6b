// Checkpoint/restore for the adaptive runtime: Snapshot captures every
// piece of learned and health state a kill would otherwise lose — the
// per-kernel adaptation (samples, cluster, pinned configuration), the
// degradation-ladder position, retry/quarantine/dropout counters, the
// divergence tracker, and the full step history — and Restore rebuilds
// a runtime whose observable behaviour (Steps, Summarize, HealthFor,
// and every future RunKernel decision) is reflect.DeepEqual-identical
// to one that never stopped. Predictions are deliberately NOT
// persisted: they are a deterministic function of the model and the
// persisted sample runs, so Restore recomputes them and a snapshot can
// never disagree with the model that consumes it.
package rts

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"acsel/internal/apu"
	"acsel/internal/checkpoint"
	"acsel/internal/core"
	"acsel/internal/profiler"
)

// SnapshotVersion guards the snapshot schema; Restore rejects other
// versions rather than guessing at field meanings.
const SnapshotVersion = 1

// Journal record types for runtimes checkpointed through
// internal/checkpoint: a full state snapshot, and one executed step.
const (
	// RecordSnapshot frames a JSON-encoded Snapshot.
	RecordSnapshot byte = 1
	// RecordStep frames one JSON-encoded Step appended after the
	// snapshot it extends.
	RecordStep byte = 2
)

// KernelCheckpoint is one kernel's persisted adaptation state.
type KernelCheckpoint struct {
	Key  string `json:"key"`
	Iter int    `json:"iter"`
	// Adapted records whether classification has happened (iter >= 2
	// on an uninterrupted run); Restore recomputes the predictions
	// from the samples only when true.
	Adapted   bool            `json:"adapted"`
	CPUSample profiler.Sample `json:"cpu_sample"`
	GPUSample profiler.Sample `json:"gpu_sample"`
	Cluster   int             `json:"cluster"`
	Pinned    apu.Config      `json:"pinned"`
	PinnedCap float64         `json:"pinned_cap"`

	Rung       Rung        `json:"rung"`
	BaseRung   Rung        `json:"base_rung"`
	MinPowerID int         `json:"min_power_id"`
	Healthy    int         `json:"healthy"`
	Unhealthy  int         `json:"unhealthy"`
	DivEWMA    float64     `json:"div_ewma"`
	DivSamples int         `json:"div_samples"`
	Applied    *apu.Config `json:"applied,omitempty"`

	Demotions     int     `json:"demotions"`
	Recoveries    int     `json:"recoveries"`
	Quarantined   int     `json:"quarantined"`
	Dropouts      int     `json:"dropouts"`
	ApplyRetries  int     `json:"apply_retries"`
	ApplyFailures int     `json:"apply_failures"`
	BackoffSec    float64 `json:"backoff_sec"`
}

// Snapshot is the runtime's complete checkpointable state.
type Snapshot struct {
	Version int     `json:"version"`
	CapW    float64 `json:"cap_w"`
	// Kernels is sorted by key so snapshots of equal state are
	// byte-identical regardless of map iteration order.
	Kernels []KernelCheckpoint `json:"kernels"`
	Steps   []Step             `json:"steps"`
}

// Snapshot captures the runtime's current state. It is safe to call
// concurrently with RunKernel; the capture is atomic under the
// runtime's lock.
func (rt *Runtime) Snapshot() *Snapshot {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	snap := &Snapshot{Version: SnapshotVersion, CapW: rt.capW}
	keys := make([]string, 0, len(rt.kernels))
	for key := range rt.kernels {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		st := rt.kernels[key]
		ewma, n := st.div.State()
		kc := KernelCheckpoint{
			Key:           key,
			Iter:          st.iter,
			Adapted:       st.pred.Preds != nil,
			CPUSample:     st.cpuSample,
			GPUSample:     st.gpuSample,
			Cluster:       st.cluster,
			Pinned:        st.pinned,
			PinnedCap:     st.pinnedCap,
			Rung:          st.rung,
			BaseRung:      st.baseRung,
			MinPowerID:    st.pred.MinPowerID,
			Healthy:       st.healthy,
			Unhealthy:     st.unhealthy,
			DivEWMA:       ewma,
			DivSamples:    n,
			Demotions:     st.demotions,
			Recoveries:    st.recoveries,
			Quarantined:   st.quarantined,
			Dropouts:      st.dropouts,
			ApplyRetries:  st.applyRetries,
			ApplyFailures: st.applyFailures,
			BackoffSec:    st.backoffSec,
		}
		if st.applied != nil {
			cp := *st.applied
			kc.Applied = &cp
		}
		snap.Kernels = append(snap.Kernels, kc)
	}
	if len(rt.steps) > 0 {
		snap.Steps = append([]Step(nil), rt.steps...)
	}
	return snap
}

// ErrBadSnapshot reports a snapshot Restore cannot accept.
var ErrBadSnapshot = errors.New("rts: invalid snapshot")

// Restore replaces the runtime's state with a snapshot taken from a
// runtime over the same model and options. Per-kernel predictions are
// recomputed from the persisted sample runs — the same deterministic
// computation adapt performed originally — so the restored runtime's
// future selections match the uninterrupted run's exactly; a recorded
// minimum-power floor the recomputation disagrees with marks a
// snapshot from another model and is rejected. Restore fully
// overwrites prior state; call it on a fresh runtime.
func (rt *Runtime) Restore(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("%w: nil", ErrBadSnapshot)
	}
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("%w: version %d (want %d)", ErrBadSnapshot, snap.Version, SnapshotVersion)
	}
	if err := validCapW(snap.CapW); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	kernels := make(map[string]*kernelState, len(snap.Kernels))
	for _, kc := range snap.Kernels {
		if kc.Key == "" {
			return fmt.Errorf("%w: kernel with empty key", ErrBadSnapshot)
		}
		if _, dup := kernels[kc.Key]; dup {
			return fmt.Errorf("%w: duplicate kernel key %q", ErrBadSnapshot, kc.Key)
		}
		st := &kernelState{
			iter:          kc.Iter,
			cpuSample:     kc.CPUSample,
			gpuSample:     kc.GPUSample,
			cluster:       kc.Cluster,
			pinned:        kc.Pinned,
			pinnedCap:     kc.PinnedCap,
			rung:          kc.Rung,
			baseRung:      kc.BaseRung,
			pred:          core.Predicted{MinPowerID: kc.MinPowerID},
			healthy:       kc.Healthy,
			unhealthy:     kc.Unhealthy,
			demotions:     kc.Demotions,
			recoveries:    kc.Recoveries,
			quarantined:   kc.Quarantined,
			dropouts:      kc.Dropouts,
			applyRetries:  kc.ApplyRetries,
			applyFailures: kc.ApplyFailures,
			backoffSec:    kc.BackoffSec,
		}
		st.div.SetState(kc.DivEWMA, kc.DivSamples)
		if kc.Applied != nil {
			cp := *kc.Applied
			st.applied = &cp
		}
		if kc.Adapted {
			sr := core.SampleRuns{CPU: kc.CPUSample, GPU: kc.GPUSample}
			pred, err := rt.model.Predict(sr)
			if err != nil {
				return fmt.Errorf("rts: restoring %q: %w", kc.Key, err)
			}
			if pred.MinPowerID != kc.MinPowerID {
				return fmt.Errorf("%w: kernel %q floor config %d, model predicts %d",
					ErrBadSnapshot, kc.Key, kc.MinPowerID, pred.MinPowerID)
			}
			st.pred = pred
		}
		kernels[kc.Key] = st
	}
	var steps []Step
	if len(snap.Steps) > 0 {
		steps = append([]Step(nil), snap.Steps...)
	}
	rt.mu.Lock()
	rt.capW = snap.CapW
	rt.kernels = kernels
	rt.steps = steps
	rt.mu.Unlock()
	mRestores.Inc()
	return nil
}

// EncodeSnapshot frames the snapshot as a checkpoint journal record.
func EncodeSnapshot(snap *Snapshot) (checkpoint.Record, error) {
	data, err := json.Marshal(snap)
	if err != nil {
		return checkpoint.Record{}, err
	}
	return checkpoint.Record{Type: RecordSnapshot, Data: data}, nil
}

// DecodeSnapshot parses a RecordSnapshot journal record.
func DecodeSnapshot(rec checkpoint.Record) (*Snapshot, error) {
	if rec.Type != RecordSnapshot {
		return nil, fmt.Errorf("rts: record type %d is not a snapshot", rec.Type)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Data, &snap); err != nil {
		return nil, fmt.Errorf("rts: decoding snapshot: %w", err)
	}
	return &snap, nil
}

// EncodeStep frames one executed step as a checkpoint journal record.
func EncodeStep(s Step) (checkpoint.Record, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return checkpoint.Record{}, err
	}
	return checkpoint.Record{Type: RecordStep, Data: data}, nil
}

// DecodeStep parses a RecordStep journal record.
func DecodeStep(rec checkpoint.Record) (Step, error) {
	if rec.Type != RecordStep {
		return Step{}, fmt.Errorf("rts: record type %d is not a step", rec.Type)
	}
	var s Step
	if err := json.Unmarshal(rec.Data, &s); err != nil {
		return Step{}, fmt.Errorf("rts: decoding step: %w", err)
	}
	return s, nil
}
