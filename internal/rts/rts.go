// Package rts is the adaptive runtime system the paper's profiling
// library is "designed to provide a foundation for" (§III-D): it
// executes an application's kernels iteration by iteration, spends each
// kernel's first two iterations on the sample configurations (§III-C),
// predicts the kernel's whole configuration space once (core.Predict),
// pins the kernel to the best predicted configuration under the current
// power cap, and thereafter re-selects from the cached predictions
// whenever the cap changes — without re-profiling or re-predicting.
// An optional feedback limiter steps the pinned configuration's
// frequency down when measured power exceeds the cap.
package rts

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"acsel/internal/acpi"
	"acsel/internal/apu"
	"acsel/internal/core"
	"acsel/internal/fault"
	"acsel/internal/kernels"
	"acsel/internal/power"
	"acsel/internal/profiler"
	"acsel/internal/rapl"
	"acsel/internal/stats"
)

// Phase describes where a kernel is in its adaptation lifecycle.
type Phase int

const (
	// PhaseSampleCPU is the first iteration (CPU sample config).
	PhaseSampleCPU Phase = iota
	// PhaseSampleGPU is the second iteration (GPU sample config).
	PhaseSampleGPU
	// PhasePinned is every subsequent iteration (selected config).
	PhasePinned
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseSampleCPU:
		return "sample-cpu"
	case PhaseSampleGPU:
		return "sample-gpu"
	case PhasePinned:
		return "pinned"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Options configures the runtime.
type Options struct {
	// CapW is the initial node power cap.
	CapW float64
	// FL enables the feedback frequency limiter on pinned kernels.
	FL bool
	// VarAwareZ, when positive, applies the variance-aware selection
	// margin (§VI): predicted power + z·σ must fit under the cap.
	VarAwareZ float64

	// Faults wires a deterministic fault plan into the runtime's
	// hardware seams (SMU, P-states, counters, kernel iterations) and
	// implicitly arms the watchdog. Nil runs clean.
	Faults *fault.Injector
	// Watchdog arms the cap-violation watchdog and degradation ladder
	// even without fault injection (production posture). With both
	// Faults nil and Watchdog false the runtime behaves exactly as
	// before this layer existed.
	Watchdog bool
	// DivergeFrac is the smoothed |measured−predicted|/predicted power
	// divergence beyond which an iteration counts as unhealthy
	// (default 0.35).
	DivergeFrac float64
	// DemoteAfter is how many consecutive unhealthy pinned iterations
	// walk a kernel one rung down the ladder (default 2).
	DemoteAfter int
	// PromoteAfter is how many consecutive healthy pinned iterations
	// walk it one rung back up (default 4).
	PromoteAfter int
	// MaxApplyRetries bounds the retry-with-backoff loop around
	// transient P-state transition failures (default 3).
	MaxApplyRetries int
	// MaxMeasureRetries bounds sensor re-reads after a dropout
	// (default 2).
	MaxMeasureRetries int
}

// Rung is a kernel's position on the graceful-degradation ladder. The
// runtime starts every kernel at the most aggressive rung its options
// allow and demotes one rung at a time when measured power diverges
// from predicted or violates the cap; sustained healthy readings
// promote it back up.
type Rung int

const (
	// RungModel trusts the model's selection outright (the paper's
	// Model method).
	RungModel Rung = iota
	// RungModelFL adds the measured-power feedback limiter on top of
	// the model's selection (Model+FL).
	RungModelFL
	// RungMinPower abandons performance and pins the minimum
	// predicted-power configuration — the conservative floor a node
	// falls to when its sensors or predictions cannot be trusted.
	RungMinPower
)

// String names the rung.
func (r Rung) String() string {
	switch r {
	case RungModel:
		return "model"
	case RungModelFL:
		return "model+fl"
	case RungMinPower:
		return "min-power"
	}
	return fmt.Sprintf("Rung(%d)", int(r))
}

// Watchdog defaults.
const (
	defaultDivergeFrac    = 0.35
	defaultDemoteAfter    = 2
	defaultPromoteAfter   = 4
	defaultApplyRetries   = 3
	defaultMeasureRetries = 2
)

// Step reports one executed kernel iteration.
type Step struct {
	Kernel    string
	Phase     Phase
	Config    apu.Config
	Cluster   int // valid from PhasePinned on; -1 before
	TimeSec   float64
	PowerW    float64
	EnergyJ   float64
	UnderCap  bool
	Iteration int

	// Robustness annotations; zero values on clean runs.
	Rung Rung
	// Quarantined marks a step whose power reading failed the sanity
	// gate (implausible wattage): PowerW holds the model's estimate
	// instead of the sensor's claim, and the step is excluded from
	// Violations because the truth is unknown.
	Quarantined bool
	// SensorLost marks a step with no reading at all after bounded
	// dropout retries; PowerW likewise falls back to the estimate.
	SensorLost bool
}

// Trusted reports whether the step's power reading came from a
// healthy sensor.
func (s Step) Trusted() bool { return !s.Quarantined && !s.SensorLost }

// kernelState tracks one kernel's adaptation.
type kernelState struct {
	iter      int
	cpuSample profiler.Sample
	gpuSample profiler.Sample
	cluster   int
	pred      core.Predicted // nil Preds until adaptation
	pinned    apu.Config
	pinnedCap float64 // cap the pin was chosen for

	// Degradation-ladder state, meaningful only when the watchdog is
	// armed (Options.Watchdog or a fault plan).
	rung          Rung
	baseRung      Rung // rung recovery stops at (ModelFL when FL opt is on)
	healthy       int  // consecutive healthy pinned iterations
	unhealthy     int  // consecutive unhealthy pinned iterations
	div           core.DivergenceTracker
	applied       *apu.Config // config the hardware actually holds
	demotions     int
	recoveries    int
	quarantined   int
	dropouts      int
	applyRetries  int
	applyFailures int
	backoffSec    float64
}

// KernelHealth is one kernel's robustness state, surfaced through
// Summary.Health when the watchdog is armed.
type KernelHealth struct {
	// Rung is where the kernel currently sits on the degradation
	// ladder.
	Rung Rung
	// Demotions and Recoveries count ladder moves down and back up.
	Demotions  int
	Recoveries int
	// Quarantined counts readings rejected by the sanity gate;
	// Dropouts counts sensor dropout events (including retried reads).
	Quarantined int
	Dropouts    int
	// ApplyRetries and ApplyFailures count P-state transition retries
	// and attempts that exhausted the retry budget; BackoffSec is the
	// cumulative booked retry backoff.
	ApplyRetries  int
	ApplyFailures int
	BackoffSec    float64
	// Divergence is the kernel's current smoothed
	// |measured−predicted|/predicted power error.
	Divergence float64
}

// Runtime executes kernels adaptively.
type Runtime struct {
	prof  *profiler.Profiler
	model *core.Model
	pm    *acpi.Manager
	opts  Options

	mu      sync.Mutex
	capW    float64
	kernels map[string]*kernelState
	steps   []Step
}

// ErrNoModel is returned when constructing a runtime without a model.
var ErrNoModel = errors.New("rts: nil model")

// ErrBadCap is returned when a power cap is NaN, infinite, or not
// positive.
var ErrBadCap = errors.New("rts: power cap must be a positive finite wattage")

func validCapW(w float64) error {
	if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
		return fmt.Errorf("%w: got %v", ErrBadCap, w)
	}
	return nil
}

// New creates a runtime over a trained model. A fault plan in the
// options is wired through to the profiler's hardware seams and the
// P-state manager.
func New(model *core.Model, opts Options) (*Runtime, error) {
	if model == nil {
		return nil, ErrNoModel
	}
	if err := validCapW(opts.CapW); err != nil {
		return nil, err
	}
	rt := &Runtime{
		prof:    profiler.New(),
		model:   model,
		pm:      acpi.NewManager(),
		opts:    opts,
		capW:    opts.CapW,
		kernels: map[string]*kernelState{},
	}
	rt.prof.Faults = opts.Faults
	rt.pm.SetFaultInjector(opts.Faults)
	return rt, nil
}

// ladderArmed reports whether the watchdog and degradation ladder are
// active. They arm automatically under fault injection; with them off
// the runtime's behaviour is bit-identical to the pre-robustness
// implementation.
func (rt *Runtime) ladderArmed() bool { return rt.opts.Watchdog || rt.opts.Faults != nil }

func (rt *Runtime) divergeFrac() float64 {
	if rt.opts.DivergeFrac > 0 {
		return rt.opts.DivergeFrac
	}
	return defaultDivergeFrac
}

func (rt *Runtime) demoteAfter() int {
	if rt.opts.DemoteAfter > 0 {
		return rt.opts.DemoteAfter
	}
	return defaultDemoteAfter
}

func (rt *Runtime) promoteAfter() int {
	if rt.opts.PromoteAfter > 0 {
		return rt.opts.PromoteAfter
	}
	return defaultPromoteAfter
}

func (rt *Runtime) applyRetryBudget() int {
	if rt.opts.MaxApplyRetries > 0 {
		return rt.opts.MaxApplyRetries
	}
	return defaultApplyRetries
}

// selectZ is the variance-aware margin; a non-positive VarAwareZ is off.
func (rt *Runtime) selectZ() float64 {
	if rt.opts.VarAwareZ > 0 {
		return rt.opts.VarAwareZ
	}
	return 0
}

func (rt *Runtime) measureRetryBudget() int {
	if rt.opts.MaxMeasureRetries > 0 {
		return rt.opts.MaxMeasureRetries
	}
	return defaultMeasureRetries
}

// Profiler exposes the measurement history (the paper: "a history of
// performance and power measurements is made accessible to the
// application or runtime").
func (rt *Runtime) Profiler() *profiler.Profiler { return rt.prof }

// PStates exposes the ACPI manager, for inspecting DVFS state.
func (rt *Runtime) PStates() *acpi.Manager { return rt.pm }

// SetCap updates the power cap. Already-pinned kernels re-select from
// their cached predictions on their next iteration. NaN,
// infinite, and non-positive wattages are rejected: a NaN cap would
// silently disable every under-cap comparison downstream.
func (rt *Runtime) SetCap(w float64) error {
	if err := validCapW(w); err != nil {
		return err
	}
	rt.mu.Lock()
	rt.capW = w
	rt.mu.Unlock()
	return nil
}

// Cap returns the current power cap.
func (rt *Runtime) Cap() float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.capW
}

// RunKernel executes the next iteration of kernel k under the runtime's
// adaptation policy and returns the step record.
func (rt *Runtime) RunKernel(k kernels.Kernel) (Step, error) {
	return rt.RunKernelAt(k, "")
}

// RunKernelAt is RunKernel with an explicit call-site context: the
// paper's §VI extension ("the runtime could use call stacks to
// differentiate between invocations of the same kernel from distinct
// points in the application"). Distinct call sites adapt independently
// — each gets its own sampling iterations, classification, and pinned
// configuration — because the same kernel invoked from different phases
// often sees different inputs.
func (rt *Runtime) RunKernelAt(k kernels.Kernel, callsite string) (Step, error) {
	key := k.ID()
	if callsite != "" {
		key += "@" + callsite
	}
	rt.mu.Lock()
	st, ok := rt.kernels[key]
	if !ok {
		st = &kernelState{cluster: -1, pred: core.Predicted{MinPowerID: -1}}
		if rt.opts.FL {
			st.rung = RungModelFL
		}
		st.baseRung = st.rung
		rt.kernels[key] = st
	}
	capW := rt.capW
	rt.mu.Unlock()

	var step Step
	switch {
	case st.iter == 0:
		s, meta, err := rt.runSample(k, st, apu.SampleConfigCPU(), 0)
		if err != nil {
			return Step{}, err
		}
		st.cpuSample = s
		step = rt.recordStep(k, st, PhaseSampleCPU, s, capW, meta)
	case st.iter == 1:
		s, meta, err := rt.runSample(k, st, apu.SampleConfigGPU(), 1)
		if err != nil {
			return Step{}, err
		}
		st.gpuSample = s
		if err := rt.adapt(st, capW); err != nil {
			return Step{}, err
		}
		step = rt.recordStep(k, st, PhaseSampleGPU, s, capW, meta)
	default:
		s, err := rt.runPinned(k, st, key, capW)
		if err != nil {
			return Step{}, err
		}
		step = s
	}
	st.iter++
	return step, nil
}

// runSample executes one sampling iteration. With the watchdog armed,
// sensor dropouts are re-read (bounded) and persistent sensor
// failures are tolerated rather than fatal: the degraded sample — zero
// power after a dropout, the claimed wattage after an implausible
// reading — flows into classification, and the resulting misprediction
// is exactly what the degradation ladder exists to catch.
func (rt *Runtime) runSample(k kernels.Kernel, st *kernelState, cfg apu.Config, iter int) (profiler.Sample, stepMeta, error) {
	if !rt.ladderArmed() {
		s, err := rt.prof.RunConfig(k, cfg, iter)
		return s, stepMeta{}, err
	}
	s, err := rt.prof.RunConfigAttempt(k, cfg, iter, 0)
	for a := 1; errors.Is(err, power.ErrSensorDropout) && a <= rt.measureRetryBudget(); a++ {
		st.dropouts++
		mDropouts.Inc()
		s, err = rt.prof.RunConfigAttempt(k, cfg, iter, a)
	}
	meta := stepMeta{rung: st.rung}
	switch {
	case err == nil:
	case errors.Is(err, power.ErrSensorDropout):
		st.dropouts++
		mDropouts.Inc()
		meta.sensorLost = true
	case errors.Is(err, power.ErrImplausibleReading):
		st.quarantined++
		mQuarantined.Inc()
		meta.quarantined = true
	default:
		return s, meta, err
	}
	return s, meta, nil
}

// runPinned executes one pinned iteration: re-selection on cap change,
// the P-state apply (with bounded retry under faults), the measured
// run (with dropout re-reads and the sanity gate), the feedback
// limiter, and the watchdog's health bookkeeping.
func (rt *Runtime) runPinned(k kernels.Kernel, st *kernelState, key string, capW float64) (Step, error) {
	armed := rt.ladderArmed()
	if !stats.AlmostEqual(st.pinnedCap, capW) {
		// Cap changed: re-select from the cached predictions (no
		// re-profiling).
		if err := rt.reselect(st, capW); err != nil {
			return Step{}, err
		}
		st.div.Reset()
	}

	runCfg := st.pinned
	if !armed {
		if err := rt.pm.Apply(st.pinned); err != nil {
			return Step{}, err
		}
	} else if err := rt.applyWithRetry(st, key); err != nil {
		if !errors.Is(err, acpi.ErrTransitionFailed) {
			return Step{}, err
		}
		// Retry budget exhausted: the transition never happened, so the
		// hardware kept whatever configuration it last held. Run there
		// and let the watchdog see the consequences.
		st.applyFailures++
		mApplyFailures.Inc()
		if st.applied != nil {
			runCfg = *st.applied
		}
	} else {
		cp := st.pinned
		st.applied = &cp
	}

	var s profiler.Sample
	var err error
	if !armed {
		s, err = rt.prof.RunConfig(k, st.pinned, st.iter)
		if err != nil {
			return Step{}, err
		}
	} else {
		s, err = rt.prof.RunConfigAttempt(k, runCfg, st.iter, 0)
		for a := 1; errors.Is(err, power.ErrSensorDropout) && a <= rt.measureRetryBudget(); a++ {
			st.dropouts++
			mDropouts.Inc()
			s, err = rt.prof.RunConfigAttempt(k, runCfg, st.iter, a)
		}
	}
	meta := stepMeta{rung: st.rung}
	switch {
	case err == nil:
	case errors.Is(err, power.ErrSensorDropout):
		st.dropouts++
		mDropouts.Inc()
		meta.sensorLost = true
	case errors.Is(err, power.ErrImplausibleReading):
		st.quarantined++
		mQuarantined.Inc()
		meta.quarantined = true
	default:
		return Step{}, err
	}
	trusted := err == nil
	if !trusted {
		// Sanity gate: the reading is quarantined. Control decisions and
		// energy accounting fall back to the model's prediction for the
		// configuration that actually ran.
		meta.estimateW = rt.predictedW(st, runCfg)
	}

	measured := s.TotalPowerW()
	flActive := rt.opts.FL || (armed && st.rung >= RungModelFL)
	if flActive && trusted && measured > capW {
		// Feedback: step the pinned configuration down for future
		// iterations (GPU knob first on GPU configs, then CPU).
		policy := rapl.PolicyCPU
		if st.pinned.Device == apu.GPUDevice {
			policy = rapl.PolicyGPU
		}
		if next, changed := rapl.Step(st.pinned, rapl.StepDown, policy); changed {
			st.pinned = next
		}
	}

	if armed {
		if trusted {
			st.div.Observe(rt.predictedW(st, runCfg), measured)
			mDivergence.Set(st.div.Value())
			if measured > capW || st.div.Diverged(rt.divergeFrac()) {
				st.unhealthy++
				st.healthy = 0
			} else {
				st.healthy++
				st.unhealthy = 0
			}
		} else {
			// A blind iteration cannot confirm the cap held; it counts
			// against the kernel's health.
			st.unhealthy++
			st.healthy = 0
		}
		if st.unhealthy >= rt.demoteAfter() {
			rt.demote(st, capW)
		} else if st.rung > st.baseRung && st.healthy >= rt.promoteAfter() {
			rt.promote(st, capW)
		}
	}
	return rt.recordStep(k, st, PhasePinned, s, capW, meta), nil
}

// applyWithRetry drives the pinned configuration into the P-state
// manager, retrying transient transition failures up to the retry
// budget. Each retry is a fresh deterministic fault event (the attempt
// ordinal keys it), and the exponential backoff between attempts is
// booked into the kernel's health record rather than slept — the
// simulation has no wall clock.
func (rt *Runtime) applyWithRetry(st *kernelState, key string) error {
	evKey := fmt.Sprintf("%s#i%d", key, st.iter)
	budget := rt.applyRetryBudget()
	var err error
	for attempt := 0; attempt <= budget; attempt++ {
		if attempt > 0 {
			st.applyRetries++
			mPStateRetries.Inc()
			st.backoffSec += acpi.TransitionLatencySec * float64(int(1)<<uint(attempt-1))
		}
		err = rt.pm.ApplyFor(st.pinned, evKey, attempt)
		if err == nil || !errors.Is(err, acpi.ErrTransitionFailed) {
			return err
		}
	}
	return err
}

// demote walks the kernel one rung down the ladder and, at the
// bottom, pins the minimum predicted-power configuration.
func (rt *Runtime) demote(st *kernelState, capW float64) {
	st.unhealthy, st.healthy = 0, 0
	if st.rung >= RungMinPower {
		return
	}
	st.rung++
	st.demotions++
	mLadderTransitions.With("demote").Inc()
	st.div.Reset()
	if st.rung == RungMinPower && st.pred.MinPowerID >= 0 {
		if cfg, err := rt.model.Space.ByID(st.pred.MinPowerID); err == nil {
			st.pinned = cfg
			st.pinnedCap = capW
		}
	}
}

// promote walks the kernel one rung back up after sustained healthy
// readings and re-selects the configuration for the restored rung.
func (rt *Runtime) promote(st *kernelState, capW float64) {
	st.unhealthy, st.healthy = 0, 0
	if st.rung <= st.baseRung {
		return
	}
	st.rung--
	st.recoveries++
	st.div.Reset()
	if err := rt.reselect(st, capW); err != nil {
		// reselect only fails before adaptation; stay demoted.
		st.rung++
		st.recoveries--
		return
	}
	mLadderTransitions.With("promote").Inc()
}

// predictedW returns the model's predicted package power for cfg, or
// NaN if the kernel has no cached prediction for it.
func (rt *Runtime) predictedW(st *kernelState, cfg apu.Config) float64 {
	id := rt.model.Space.IDOf(cfg)
	if id < 0 || id >= len(st.pred.Preds) {
		return math.NaN()
	}
	return st.pred.Preds[id].PowerW
}

// adapt predicts the kernel's configuration space once from its two
// samples, caches the table, and pins the initial configuration.
func (rt *Runtime) adapt(st *kernelState, capW float64) error {
	pred, err := rt.model.Predict(core.SampleRuns{CPU: st.cpuSample, GPU: st.gpuSample})
	if err != nil {
		return err
	}
	st.pred = pred
	st.cluster = pred.Cluster
	return rt.reselect(st, capW)
}

// reselect picks the pinned configuration from cached predictions for
// the current cap.
func (rt *Runtime) reselect(st *kernelState, capW float64) error {
	if st.pred.Preds == nil {
		return errors.New("rts: reselect before adaptation")
	}
	sel, err := st.pred.Select(capW, rt.selectZ())
	if err != nil {
		return err
	}
	if !sel.MeetsCapPredicted {
		mReselectFallback.Inc()
	}
	id := sel.ConfigID
	if rt.ladderArmed() && st.rung == RungMinPower && st.pred.MinPowerID >= 0 {
		// A kernel on the bottom rung stays floored at minimum power
		// regardless of what the cap would allow — recovery goes
		// through promote, not through a cap change.
		id = st.pred.MinPowerID
	}
	cfg, err := rt.model.Space.ByID(id)
	if err != nil {
		return err
	}
	st.pinned = cfg
	st.pinnedCap = capW
	return nil
}

// stepMeta carries per-step robustness annotations into recordStep.
type stepMeta struct {
	rung        Rung
	quarantined bool
	sensorLost  bool
	// estimateW replaces the sensor's claim in the step record when
	// the reading was quarantined or lost (the model's prediction for
	// the configuration that ran, or 0 when none exists yet).
	estimateW float64
}

func (rt *Runtime) recordStep(k kernels.Kernel, st *kernelState, ph Phase, s profiler.Sample, capW float64, meta stepMeta) Step {
	powerW := s.TotalPowerW()
	if meta.quarantined || meta.sensorLost {
		powerW = meta.estimateW
		if math.IsNaN(powerW) || math.IsInf(powerW, 0) || powerW < 0 {
			powerW = 0
		}
	}
	step := Step{
		Kernel:      k.ID(),
		Phase:       ph,
		Config:      s.Config,
		Cluster:     st.cluster,
		TimeSec:     s.TimeSec,
		PowerW:      powerW,
		EnergyJ:     powerW * s.TimeSec,
		UnderCap:    powerW <= capW,
		Iteration:   st.iter,
		Rung:        meta.rung,
		Quarantined: meta.quarantined,
		SensorLost:  meta.sensorLost,
	}
	mSteps.With(ph.String()).Inc()
	if step.Trusted() && !step.UnderCap {
		mCapViolations.Inc()
	}
	rt.mu.Lock()
	rt.steps = append(rt.steps, step)
	rt.mu.Unlock()
	return step
}

// Steps returns all executed steps in order.
func (rt *Runtime) Steps() []Step {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]Step(nil), rt.steps...)
}

// Summary aggregates a run.
type Summary struct {
	Steps        int
	TimeSec      float64
	EnergyJ      float64
	Violations   int
	PinnedSteps  int
	SampledSteps int

	// Robustness accounting; all zero (and Health nil) on clean runs
	// with the watchdog disarmed.
	Quarantined   int
	SensorLost    int
	Demotions     int
	Recoveries    int
	ApplyRetries  int
	ApplyFailures int
	// Health maps each kernel key to its ladder state.
	Health map[string]KernelHealth
}

// Summarize reduces the step history. Steps whose readings were
// quarantined or lost are excluded from Violations — the truth is
// unknown — and counted separately.
func (rt *Runtime) Summarize() Summary {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var sum Summary
	for _, s := range rt.steps {
		sum.Steps++
		sum.TimeSec += s.TimeSec
		sum.EnergyJ += s.EnergyJ
		switch {
		case s.Quarantined:
			sum.Quarantined++
		case s.SensorLost:
			sum.SensorLost++
		case !s.UnderCap:
			sum.Violations++
		}
		if s.Phase == PhasePinned {
			sum.PinnedSteps++
		} else {
			sum.SampledSteps++
		}
	}
	if rt.ladderArmed() {
		sum.Health = make(map[string]KernelHealth, len(rt.kernels))
		for key, st := range rt.kernels {
			h := rt.healthOf(st)
			sum.Health[key] = h
			sum.Demotions += h.Demotions
			sum.Recoveries += h.Recoveries
			sum.ApplyRetries += h.ApplyRetries
			sum.ApplyFailures += h.ApplyFailures
		}
	}
	return sum
}

func (rt *Runtime) healthOf(st *kernelState) KernelHealth {
	return KernelHealth{
		Rung:          st.rung,
		Demotions:     st.demotions,
		Recoveries:    st.recoveries,
		Quarantined:   st.quarantined,
		Dropouts:      st.dropouts,
		ApplyRetries:  st.applyRetries,
		ApplyFailures: st.applyFailures,
		BackoffSec:    st.backoffSec,
		Divergence:    st.div.Value(),
	}
}

// HealthFor returns the ladder state of one kernel key (ok=false for
// unknown kernels).
func (rt *Runtime) HealthFor(key string) (KernelHealth, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st, ok := rt.kernels[key]
	if !ok {
		return KernelHealth{}, false
	}
	return rt.healthOf(st), true
}

// SelectionFor returns the currently pinned configuration of a kernel
// (ok=false before its two sample iterations complete). For call-site
// differentiated kernels, pass "kernelID@callsite".
func (rt *Runtime) SelectionFor(kernelID string) (apu.Config, int, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st, ok := rt.kernels[kernelID]
	if !ok || st.iter < 2 {
		return apu.Config{}, -1, false
	}
	return st.pinned, st.cluster, true
}

// PredictionsFor returns the cached per-configuration predictions of an
// adapted kernel (ok=false before adaptation). Cluster-level budget
// policies consume these to build node utility curves without
// re-profiling (§I: constraints "passed down through the machine
// hierarchy").
func (rt *Runtime) PredictionsFor(key string) ([]core.Prediction, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st, ok := rt.kernels[key]
	if !ok || st.pred.Preds == nil {
		return nil, false
	}
	return append([]core.Prediction(nil), st.pred.Preds...), true
}

// AdaptedKernels lists the keys (kernel IDs, possibly with call-site
// suffixes) that have completed adaptation.
func (rt *Runtime) AdaptedKernels() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []string
	for key, st := range rt.kernels {
		if st.pred.Preds != nil {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}
