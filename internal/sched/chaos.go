// Chaos-mode decision variants: the same power-limiting policies as
// sched.Runner.Decide, but with the frequency limiter consuming its
// power readings through a sensor that may lie. The naive variants
// model the state of the practice — a limiter that takes every reading
// at face value, so a dropout (0 W) silently convinces it the cap is
// met — while the hardened variants add the sanity gate, bounded
// re-reads, and a conservative fail-safe ladder mirroring the online
// runtime's degradation behaviour.
package sched

import (
	"errors"
	"fmt"

	"acsel/internal/apu"
	"acsel/internal/core"
	"acsel/internal/fault"
	"acsel/internal/power"
)

// Readings exposes what the power sensor reports for a configuration —
// possibly distorted by injected faults. step is the limiter's
// iteration ordinal and attempt the re-read ordinal within one step;
// together with the configuration they key the deterministic fault
// event, so a retry is a fresh decision that may succeed.
type Readings interface {
	ReadPowerW(configID, step, attempt int) (float64, error)
}

// TrueReadings is a perfect sensor over the truth.
type TrueReadings struct{ Truth Truth }

// ReadPowerW implements Readings.
func (t TrueReadings) ReadPowerW(id, _, _ int) (float64, error) { return t.Truth.PowerAt(id), nil }

// FaultyReadings distorts true power through a fault plan, one event
// per (key, config, step, attempt).
type FaultyReadings struct {
	Truth  Truth
	Faults *fault.Injector
	// Key identifies the consumer (kernel, cap, method) so distinct
	// decision processes draw independent deterministic fault streams.
	Key string
}

// ReadPowerW implements Readings: the true power passed through the
// event's sensor faults. Dropout surfaces as power.ErrSensorDropout.
func (fr FaultyReadings) ReadPowerW(id, step, attempt int) (float64, error) {
	w := fr.Truth.PowerAt(id)
	key := fault.EventKey(fr.Key, id)
	if attempt > 0 {
		key = fmt.Sprintf("%s#r%d", key, attempt)
	}
	return power.DistortReading(w, fr.Faults.At(fault.SiteSMU, key, step))
}

// Hardened-controller tuning, mirroring the runtime's defaults.
const (
	// hardenedReadRetries bounds re-reads after a dropout.
	hardenedReadRetries = 2
	// hardenedMaxDistrust is how many untrusted limiter readings a
	// kernel tolerates before falling to its conservative floor.
	hardenedMaxDistrust = 3
	// maxPlausibleW is the sanity-gate ceiling for a single reading,
	// matching power.DefaultSMU().
	maxPlausibleW = 120
	// minPlausibleLoadW is the gate's floor: a package running a kernel
	// cannot draw less than its idle power (~12 W on this machine), so
	// a lower claim — a sensor stuck at a stale low value, or a dropout
	// read as zero — is as implausible as a spike.
	minPlausibleLoadW = 10
)

// DecideNaive runs one policy with the limiter reading power through
// readings and believing every value it sees: dropouts read as 0 W
// (the sensor returned nothing, the register reads zero), spikes and
// stuck values are taken at face value. Methods that never consult the
// sensor (Oracle, Model) are unaffected by construction.
func (r *Runner) DecideNaive(m Method, truth Truth, readings Readings, sr core.SampleRuns, capW float64) (Decision, error) {
	read := func(id, step int) float64 {
		w, err := readings.ReadPowerW(id, step, 0)
		if err != nil {
			return 0 // naive: a dead sensor reads zero, and zero is under any cap
		}
		return w
	}
	switch m {
	case MethodOracle:
		return r.Oracle(truth, capW), nil
	case MethodModel:
		return r.ModelOnly(truth, sr, capW)
	case MethodCPUFL:
		return r.limitNaive(MethodCPUFL, truth, read, capW), nil
	case MethodGPUFL:
		return r.limitNaiveGPU(truth, read, capW), nil
	case MethodModelFL:
		_, sel, err := r.predictSelect(sr, capW)
		if err != nil {
			return Decision{}, err
		}
		return r.limitNaiveFrom(MethodModelFL, truth, read, sel.Config, capW), nil
	}
	return Decision{}, fmt.Errorf("sched: unknown method %d", int(m))
}

// limitNaive is CPUFL with sensor-mediated readings.
func (r *Runner) limitNaive(m Method, truth Truth, read func(id, step int) float64, capW float64) Decision {
	cfg := apu.Config{
		Device:     apu.CPUDevice,
		CPUFreqGHz: apu.MaxCPUFreq(),
		Threads:    apu.NumCores,
		GPUFreqGHz: apu.MinGPUFreq(),
	}
	steps := 0
	for {
		id := r.Space.IDOf(cfg)
		if read(id, steps) <= capW+capSlack {
			return r.finish(m, truth, id, steps)
		}
		next, ok := apu.StepDownCPU(cfg.CPUFreqGHz)
		if !ok {
			return r.finish(m, truth, id, steps)
		}
		cfg.CPUFreqGHz = next
		steps++
	}
}

// limitNaiveGPU is GPUFL with sensor-mediated readings.
func (r *Runner) limitNaiveGPU(truth Truth, read func(id, step int) float64, capW float64) Decision {
	cfg := apu.Config{
		Device:     apu.GPUDevice,
		CPUFreqGHz: apu.MinCPUFreq(),
		Threads:    1,
		GPUFreqGHz: apu.MaxGPUFreq(),
	}
	steps := 0
	for {
		id := r.Space.IDOf(cfg)
		if read(id, steps) <= capW+capSlack {
			break
		}
		next, ok := apu.StepDownGPU(cfg.GPUFreqGHz)
		if !ok {
			return r.finish(MethodGPUFL, truth, id, steps)
		}
		cfg.GPUFreqGHz = next
		steps++
	}
	for {
		next, ok := apu.StepUpCPU(cfg.CPUFreqGHz)
		if !ok {
			break
		}
		trial := cfg
		trial.CPUFreqGHz = next
		if read(r.Space.IDOf(trial), steps) > capW+capSlack {
			break
		}
		cfg = trial
		steps++
	}
	return r.finish(MethodGPUFL, truth, r.Space.IDOf(cfg), steps)
}

// limitNaiveFrom is ModelFL's limiting phase with sensor-mediated
// readings, starting from the model's structural selection.
func (r *Runner) limitNaiveFrom(m Method, truth Truth, read func(id, step int) float64, cfg apu.Config, capW float64) Decision {
	steps := 0
	for {
		id := r.Space.IDOf(cfg)
		if read(id, steps) <= capW+capSlack {
			return r.finish(m, truth, id, steps)
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
			return r.finish(m, truth, id, steps)
		}
		cfg.CPUFreqGHz = next
		steps++
	}
}

// DecideHardened runs one policy with the robust controller: every
// limiter reading passes the sanity gate (finite, positive-or-zero,
// under the plausibility ceiling), dropouts are re-read up to
// hardenedReadRetries times, any untrusted reading is treated as
// fail-safe "assume over cap" (step down rather than stop), and after
// hardenedMaxDistrust untrusted readings the controller abandons
// feedback and falls to the method's conservative floor — the bottom
// of its frequency line, or the model's minimum predicted-power
// configuration.
func (r *Runner) DecideHardened(m Method, truth Truth, readings Readings, sr core.SampleRuns, capW float64) (Decision, error) {
	switch m {
	case MethodOracle:
		return r.Oracle(truth, capW), nil
	case MethodModel:
		return r.ModelOnly(truth, sr, capW)
	case MethodCPUFL:
		start := apu.Config{
			Device:     apu.CPUDevice,
			CPUFreqGHz: apu.MaxCPUFreq(),
			Threads:    apu.NumCores,
			GPUFreqGHz: apu.MinGPUFreq(),
		}
		return r.limitHardened(MethodCPUFL, truth, readings, start, capW, -1), nil
	case MethodGPUFL:
		start := apu.Config{
			Device:     apu.GPUDevice,
			CPUFreqGHz: apu.MinCPUFreq(),
			Threads:    1,
			GPUFreqGHz: apu.MaxGPUFreq(),
		}
		// The hardened GPU limiter skips the raise-CPU-into-headroom
		// phase when distrust accrues, so only the step-down line runs.
		return r.limitHardened(MethodGPUFL, truth, readings, start, capW, -1), nil
	case MethodModelFL:
		p, sel, err := r.predictSelect(sr, capW)
		if err != nil {
			return Decision{}, err
		}
		return r.limitHardened(MethodModelFL, truth, readings, sel.Config, capW, p.MinPowerID), nil
	}
	return Decision{}, fmt.Errorf("sched: unknown method %d", int(m))
}

// readAgreeFrac is the maximum relative disagreement between two
// redundant reads that still counts as confirmation.
const readAgreeFrac = 0.25

// trustedRead reads a configuration's power through the sanity gate
// with redundant confirmation: readings are re-taken (each re-read a
// fresh deterministic fault event) until two plausible readings agree
// within readAgreeFrac, whose mean is returned. Redundancy is what
// catches the faults the plausibility gate cannot — a sensor stuck at
// a believable wattage lies consistently only while its fault fires,
// so a disagreeing second read unmasks it. ok=false means no
// confirmed reading was obtained within the retry budget.
func trustedRead(readings Readings, id, step int) (float64, bool) {
	var got []float64
	for attempt := 0; attempt <= hardenedReadRetries; attempt++ {
		w, err := readings.ReadPowerW(id, step, attempt)
		if err != nil {
			// Dropout: no data this attempt; other errors are equally
			// unusable here.
			if !errors.Is(err, power.ErrSensorDropout) {
				return 0, false
			}
			continue
		}
		if w < minPlausibleLoadW || w > maxPlausibleW {
			continue // implausible: quarantine and re-read
		}
		for _, prev := range got {
			if readsAgree(prev, w) {
				return (prev + w) / 2, true
			}
		}
		got = append(got, w)
	}
	return 0, false
}

func readsAgree(a, b float64) bool {
	hi := a
	if b > hi {
		hi = b
	}
	if hi <= 0 {
		return true // two zero-watt readings agree (an idle trace)
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d/hi <= readAgreeFrac
}

// limitHardened steps cfg's frequency down while trusted readings
// exceed the cap. Untrusted readings step down fail-safe; persistent
// distrust drops to the floor (floorID, or the bottom of the line when
// floorID < 0).
func (r *Runner) limitHardened(m Method, truth Truth, readings Readings, cfg apu.Config, capW float64, floorID int) Decision {
	steps := 0
	distrust := 0
	for {
		id := r.Space.IDOf(cfg)
		w, ok := trustedRead(readings, id, steps)
		if ok && w <= capW+capSlack {
			return r.finish(m, truth, id, steps)
		}
		if !ok {
			distrust++
			if distrust >= hardenedMaxDistrust {
				// The sensor cannot be trusted at all: abandon feedback
				// and take the conservative floor.
				if floorID >= 0 {
					return r.finish(m, truth, floorID, steps)
				}
				return r.finish(m, truth, r.Space.IDOf(r.floorOfLine(cfg)), steps)
			}
		}
		// Trusted-over-cap and untrusted alike: step down fail-safe.
		if cfg.Device == apu.GPUDevice {
			if next, okStep := apu.StepDownGPU(cfg.GPUFreqGHz); okStep {
				cfg.GPUFreqGHz = next
				steps++
				continue
			}
		}
		next, okStep := apu.StepDownCPU(cfg.CPUFreqGHz)
		if !okStep {
			return r.finish(m, truth, id, steps)
		}
		cfg.CPUFreqGHz = next
		steps++
	}
}

// floorOfLine is cfg with every steppable frequency at its minimum —
// the most conservative configuration reachable by the limiter's knobs.
func (r *Runner) floorOfLine(cfg apu.Config) apu.Config {
	cfg.CPUFreqGHz = apu.MinCPUFreq()
	if cfg.Device == apu.GPUDevice {
		cfg.GPUFreqGHz = apu.MinGPUFreq()
	}
	return cfg
}
