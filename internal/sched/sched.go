// Package sched implements the configuration-selection policies the
// paper evaluates (§V-A): an oracle with perfect knowledge, the
// state-of-the-practice RAPL-style frequency-limiting baselines CPU+FL
// and GPU+FL, the model-driven selector, and the combination Model+FL.
//
// All policies consume a kernel's true measured behaviour through the
// Truth interface; the frequency limiter iteratively "measures" the
// power of its current configuration and steps P-states, exactly like
// the hardware limiter the paper simulates.
package sched

import (
	"errors"
	"fmt"
	"math"

	"acsel/internal/apu"
	"acsel/internal/core"
)

// Method enumerates the power-limiting policies.
type Method int

const (
	// MethodOracle has perfect knowledge of the kernel's behaviour.
	MethodOracle Method = iota
	// MethodModel selects from the model's predictions without feedback.
	MethodModel
	// MethodModelFL combines the model's device/thread selection with a
	// frequency limiter driven by measured power.
	MethodModelFL
	// MethodCPUFL runs all CPU cores, GPU parked, and lets the
	// frequency limiter set CPU P-states.
	MethodCPUFL
	// MethodGPUFL runs on the GPU at maximum frequency with the CPU at
	// minimum, limits GPU P-states, then raises CPU frequency into any
	// remaining headroom.
	MethodGPUFL
)

// Methods lists every policy in presentation order (Table III).
func Methods() []Method {
	return []Method{MethodModel, MethodModelFL, MethodGPUFL, MethodCPUFL}
}

// String names the method as in the paper's tables.
func (m Method) String() string {
	switch m {
	case MethodOracle:
		return "Oracle"
	case MethodModel:
		return "Model"
	case MethodModelFL:
		return "Model+FL"
	case MethodCPUFL:
		return "CPU+FL"
	case MethodGPUFL:
		return "GPU+FL"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Truth exposes a kernel's true behaviour per configuration — what the
// hardware would measure. The evaluation backs it with the offline
// characterization's per-config means.
type Truth interface {
	// PerfAt returns true throughput at a configuration ID.
	PerfAt(configID int) float64
	// PowerAt returns true package power at a configuration ID.
	PowerAt(configID int) float64
}

// ProfileTruth adapts a KernelProfile to Truth.
type ProfileTruth struct{ Profile *core.KernelProfile }

// PerfAt implements Truth.
func (t ProfileTruth) PerfAt(id int) float64 { return t.Profile.Stats[id].MeanPerf }

// PowerAt implements Truth.
func (t ProfileTruth) PowerAt(id int) float64 { return t.Profile.Stats[id].MeanPower }

// Decision is a policy's final configuration choice for one kernel at
// one power cap, with the true behaviour it obtains.
type Decision struct {
	Method    Method
	ConfigID  int
	Config    apu.Config
	TruePerf  float64
	TruePower float64
	// FLSteps counts frequency-limiter iterations taken.
	FLSteps int
}

// capSlack absorbs floating-point comparison noise when checking caps.
const capSlack = 1e-9

// MeetsCap reports whether the decision's true power respects the cap.
func (d Decision) MeetsCap(capW float64) bool { return d.TruePower <= capW+capSlack }

// Runner evaluates policies over a configuration space. Model may be
// nil when only oracle and FL baselines are used.
type Runner struct {
	Space *apu.Space
	Model *core.Model
	// VarAwareZ, when positive, makes the model-based policies select
	// with the §VI variance-aware margin (predicted power + z·σ ≤ cap).
	VarAwareZ float64
}

// ErrNeedModel is returned when a model-based method runs without one.
var ErrNeedModel = errors.New("sched: method requires a trained model")

// ErrEmptySpace is returned when a policy runs over an empty
// configuration space. Every policy ultimately indexes
// Space.Configs[id] with its chosen ID; with no configurations there
// is no valid ID (Oracle's fallback stays -1, the FL baselines' IDOf
// misses), so without this guard Decide would panic instead of
// erroring.
var ErrEmptySpace = errors.New("sched: empty configuration space")

// Decide runs one policy for a kernel (true behaviour via truth; sample
// runs for the model-based policies) under a power cap.
func (r *Runner) Decide(m Method, truth Truth, sr core.SampleRuns, capW float64) (Decision, error) {
	if r.Space == nil || r.Space.Len() == 0 {
		return Decision{}, fmt.Errorf("%w: cannot run %s", ErrEmptySpace, m)
	}
	switch m {
	case MethodOracle:
		return r.Oracle(truth, capW), nil
	case MethodCPUFL:
		return r.CPUFL(truth, capW), nil
	case MethodGPUFL:
		return r.GPUFL(truth, capW), nil
	case MethodModel:
		return r.ModelOnly(truth, sr, capW)
	case MethodModelFL:
		return r.ModelFL(truth, sr, capW)
	}
	return Decision{}, fmt.Errorf("sched: unknown method %d", int(m))
}

// Oracle selects the highest-true-performance configuration with true
// power within the cap; if none fits it falls back to the
// minimum-power configuration (§V-B: a method "may fail to meet a power
// constraint by selecting a configuration that cannot be sufficiently
// scaled via DVFS" — the oracle's floor is the machine's floor).
func (r *Runner) Oracle(truth Truth, capW float64) Decision {
	bestID, fbID := -1, -1
	bestPerf, minPow := math.Inf(-1), math.Inf(1)
	for id := 0; id < r.Space.Len(); id++ {
		p, w := truth.PerfAt(id), truth.PowerAt(id)
		if w <= capW+capSlack && p > bestPerf {
			bestPerf, bestID = p, id
		}
		if w < minPow {
			minPow, fbID = w, id
		}
	}
	id := bestID
	if id < 0 {
		id = fbID
		mFallback.With(MethodOracle.String()).Inc()
	}
	return r.finish(MethodOracle, truth, id, 0)
}

func (r *Runner) finish(m Method, truth Truth, id, flSteps int) Decision {
	mDecisions.With(m.String()).Inc()
	mFLSteps.Add(float64(flSteps))
	return Decision{
		Method:    m,
		ConfigID:  id,
		Config:    r.Space.Configs[id],
		TruePerf:  truth.PerfAt(id),
		TruePower: truth.PowerAt(id),
		FLSteps:   flSteps,
	}
}

// CPUFL is the CPU-focused frequency limiter: all cores enabled, GPU
// parked at minimum frequency, CPU P-state stepped down from maximum
// until measured power fits the cap (or the minimum P-state is hit).
func (r *Runner) CPUFL(truth Truth, capW float64) Decision {
	cfg := apu.Config{
		Device:     apu.CPUDevice,
		CPUFreqGHz: apu.MaxCPUFreq(),
		Threads:    apu.NumCores,
		GPUFreqGHz: apu.MinGPUFreq(),
	}
	steps := 0
	for {
		id := r.Space.IDOf(cfg)
		if truth.PowerAt(id) <= capW+capSlack {
			return r.finish(MethodCPUFL, truth, id, steps)
		}
		next, ok := apu.StepDownCPU(cfg.CPUFreqGHz)
		if !ok {
			return r.finish(MethodCPUFL, truth, id, steps)
		}
		cfg.CPUFreqGHz = next
		steps++
	}
}

// GPUFL is the GPU-focused frequency limiter: GPU at maximum frequency
// with the CPU at minimum; the limiter steps the GPU P-state down until
// the cap is met, then raises the CPU frequency into any remaining
// headroom (§V-A).
func (r *Runner) GPUFL(truth Truth, capW float64) Decision {
	cfg := apu.Config{
		Device:     apu.GPUDevice,
		CPUFreqGHz: apu.MinCPUFreq(),
		Threads:    1,
		GPUFreqGHz: apu.MaxGPUFreq(),
	}
	steps := 0
	for {
		id := r.Space.IDOf(cfg)
		if truth.PowerAt(id) <= capW+capSlack {
			break
		}
		next, ok := apu.StepDownGPU(cfg.GPUFreqGHz)
		if !ok {
			return r.finish(MethodGPUFL, truth, id, steps)
		}
		cfg.GPUFreqGHz = next
		steps++
	}
	// Raise CPU frequency while the cap still holds.
	for {
		next, ok := apu.StepUpCPU(cfg.CPUFreqGHz)
		if !ok {
			break
		}
		trial := cfg
		trial.CPUFreqGHz = next
		if truth.PowerAt(r.Space.IDOf(trial)) > capW+capSlack {
			break
		}
		cfg = trial
		steps++
	}
	return r.finish(MethodGPUFL, truth, r.Space.IDOf(cfg), steps)
}

// ModelOnly applies the model's prediction directly: the configuration
// predicted to maximize performance under the cap, with no feedback.
func (r *Runner) ModelOnly(truth Truth, sr core.SampleRuns, capW float64) (Decision, error) {
	_, sel, err := r.predictSelect(sr, capW)
	if err != nil {
		return Decision{}, err
	}
	if !sel.MeetsCapPredicted {
		mFallback.With(MethodModel.String()).Inc()
	}
	return r.finish(MethodModel, truth, sel.ConfigID, 0), nil
}

// predictSelect predicts the kernel's configuration space once and
// selects under the cap with the configured variance-aware margin (a
// non-positive VarAwareZ is off).
func (r *Runner) predictSelect(sr core.SampleRuns, capW float64) (core.Predicted, core.Selection, error) {
	if r.Model == nil {
		return core.Predicted{}, core.Selection{}, ErrNeedModel
	}
	p, err := r.Model.Predict(sr)
	if err != nil {
		return core.Predicted{}, core.Selection{}, err
	}
	z := 0.0
	if r.VarAwareZ > 0 {
		z = r.VarAwareZ
	}
	sel, err := p.Select(capW, z)
	return p, sel, err
}

// ModelFL combines the model with frequency limiting: the model picks
// the device and thread count (its structural choices the limiter
// cannot make), then the limiter steps the chosen device's frequency —
// GPU first on GPU configurations, then the host CPU — while measured
// power exceeds the cap.
func (r *Runner) ModelFL(truth Truth, sr core.SampleRuns, capW float64) (Decision, error) {
	_, sel, err := r.predictSelect(sr, capW)
	if err != nil {
		return Decision{}, err
	}
	if !sel.MeetsCapPredicted {
		mFallback.With(MethodModelFL.String()).Inc()
	}
	cfg := sel.Config
	steps := 0
	for {
		id := r.Space.IDOf(cfg)
		if truth.PowerAt(id) <= capW+capSlack {
			return r.finish(MethodModelFL, truth, id, steps), nil
		}
		if cfg.Device == apu.GPUDevice {
			if next, ok := apu.StepDownGPU(cfg.GPUFreqGHz); ok {
				cfg.GPUFreqGHz = next
				steps++
				continue
			}
		}
		next, ok := apu.StepDownCPU(cfg.CPUFreqGHz)
		if !ok {
			return r.finish(MethodModelFL, truth, id, steps), nil
		}
		cfg.CPUFreqGHz = next
		steps++
	}
}
