package core

import (
	"errors"
	"fmt"
	"math"

	"acsel/internal/apu"
	"acsel/internal/counters"
	"acsel/internal/pareto"
	"acsel/internal/profiler"
	"acsel/internal/stats"
	"acsel/internal/tree"
)

func counterNames() []string { return counters.Names() }

// ClusterModel holds one cluster's fitted regressions: a
// performance-scaling model and a power model per device.
type ClusterModel struct {
	PerfByDevice  map[apu.Device]*stats.Regression
	PowerByDevice map[apu.Device]*stats.Regression
}

// Model is the trained offline model: cluster regressions plus the
// classification tree that assigns new kernels to clusters.
type Model struct {
	K        int
	Space    *apu.Space
	Clusters []ClusterModel
	Tree     *tree.Tree
	// Assignments records the training kernels' cluster memberships.
	Assignments map[string]int
	// Options echoes the training configuration.
	Options TrainOptions
}

// SampleRuns carries the two online sample-configuration measurements
// of a new kernel: its first iteration on each device (Table II).
type SampleRuns struct {
	CPU profiler.Sample
	GPU profiler.Sample
}

// ClassifierFeatures builds the classification-tree input from the two
// sample runs: the CPU run's normalized counter metrics, both runs'
// package power, and the GPU:CPU performance ratio — everything
// observable after the kernel's first two iterations.
func ClassifierFeatures(cpu, gpu profiler.Sample) []float64 {
	f := cpu.Counters.Normalize().Vector()
	f = append(f, cpu.TotalPowerW(), gpu.TotalPowerW(), gpu.Perf()/cpu.Perf())
	return f
}

// ClassifierFeatureNames labels ClassifierFeatures entries.
func ClassifierFeatureNames() []string {
	names := append([]string(nil), counterNames()...)
	return append(names, "cpu_sample_power_w", "gpu_sample_power_w", "gpu_cpu_perf_ratio")
}

// Prediction is the model's estimate for one configuration.
type Prediction struct {
	ConfigID int
	Config   apu.Config
	Perf     float64 // predicted throughput (1/s)
	PowerW   float64 // predicted package power
	// PerfStd and PowerStd are residual-based uncertainty estimates,
	// used by the variance-aware selection extension (§VI).
	PerfStd  float64
	PowerStd float64
}

// ErrNoModel is returned when the model lacks a required component.
var ErrNoModel = errors.New("core: model component missing")

// ErrCapInfeasible marks a power cap below the model's minimum feasible
// predicted power: no configuration is predicted to fit, so a selection
// can only be the minimum-power fallback. Predicted.Select itself
// still returns that fallback (the runtime's degradation ladder wants it);
// callers that treat an unsatisfiable cap as a hard failure — the
// acsel-predict CLI, the query service's remote clients — wrap this
// sentinel so the condition stays testable across process boundaries.
var ErrCapInfeasible = errors.New("core: power cap below minimum feasible predicted power")

// Classify assigns a new kernel to a cluster from its sample runs.
// Its cost is O(tree depth), matching §IV-C.
func (m *Model) Classify(sr SampleRuns) (int, error) {
	if m.Tree == nil {
		return 0, fmt.Errorf("%w: classifier", ErrNoModel)
	}
	return m.Tree.Classify(ClassifierFeatures(sr.CPU, sr.GPU))
}

// minPredictedPerfFrac floors predicted performance at this fraction of
// the device's sample performance; linear extrapolation can otherwise
// go non-positive at space corners.
const minPredictedPerfFrac = 1e-3

// minPredictedPowerW floors predicted power; no configuration of the
// machine idles below a few watts.
const minPredictedPowerW = 3.0

// PredictAll predicts power and performance for every configuration in
// the space for a new kernel, given its sample runs. The per-device
// sample performance anchors the scaling model; power comes directly
// from the cluster's power regression.
func (m *Model) PredictAll(sr SampleRuns) ([]Prediction, int, error) {
	c, err := m.Classify(sr)
	if err != nil {
		return nil, 0, err
	}
	if c < 0 || c >= len(m.Clusters) {
		return nil, 0, fmt.Errorf("core: classifier produced cluster %d of %d", c, len(m.Clusters))
	}
	cm := m.Clusters[c]
	samplePerf := map[apu.Device]float64{
		apu.CPUDevice: sr.CPU.Perf(),
		apu.GPUDevice: sr.GPU.Perf(),
	}
	out := make([]Prediction, m.Space.Len())
	for id, cfg := range m.Space.Configs {
		perfReg := cm.PerfByDevice[cfg.Device]
		powReg := cm.PowerByDevice[cfg.Device]
		if perfReg == nil || powReg == nil {
			return nil, 0, fmt.Errorf("%w: cluster %d device %v", ErrNoModel, c, cfg.Device)
		}
		feats := cfg.Features()
		scale, scaleStd, err := perfReg.PredictWithStd(feats)
		if err != nil {
			return nil, 0, err
		}
		ref := samplePerf[cfg.Device]
		perf := scale * ref
		if min := ref * minPredictedPerfFrac; perf < min {
			perf = min
		}
		pow, powStd, err := powReg.PredictWithStd(feats)
		if err != nil {
			return nil, 0, err
		}
		if pow < minPredictedPowerW {
			pow = minPredictedPowerW
		}
		out[id] = Prediction{
			ConfigID: id,
			Config:   cfg,
			Perf:     perf,
			PowerW:   pow,
			PerfStd:  scaleStd * ref,
			PowerStd: powStd,
		}
	}
	return out, c, nil
}

// Selection is the outcome of an online configuration choice.
type Selection struct {
	ConfigID  int
	Config    apu.Config
	Predicted Prediction
	// MeetsCapPredicted reports whether the predicted power respects
	// the cap (false when the model had to fall back to the
	// minimum-predicted-power configuration).
	MeetsCapPredicted bool
	Cluster           int
}

// Predicted is one kernel's prediction table: the whole configuration
// space predicted once from the kernel's two sample runs (§III-C),
// which every later cap change re-selects from without re-predicting.
type Predicted struct {
	// Preds is indexed by configuration ID.
	Preds   []Prediction
	Cluster int
	// MinPowerID is the minimum-predicted-power configuration, the
	// fallback of an infeasible cap; -1 when every predicted power is
	// NaN or +Inf.
	MinPowerID int
}

// Predict classifies the kernel and predicts every configuration once.
func (m *Model) Predict(sr SampleRuns) (Predicted, error) {
	preds, c, err := m.PredictAll(sr)
	if err != nil {
		return Predicted{}, err
	}
	return Predicted{Preds: preds, Cluster: c, MinPowerID: minPowerIndex(preds)}, nil
}

// Select picks the configuration predicted to maximize performance
// with predicted power plus z·σ within capW (z = 0 is the paper's
// Model selection, z > 0 the variance-aware extension of §VI). When
// nothing is predicted to fit it falls back to MinPowerID with
// MeetsCapPredicted false, mirroring the oracle's fallback.
func (p Predicted) Select(capW, z float64) (Selection, error) {
	if z < 0 {
		return Selection{}, errors.New("core: negative z")
	}
	return SelectAmong(p.Preds, p.Cluster, capW, z)
}

// MinPowerW is the minimum predicted package power, the feasibility
// floor a cap is measured against (+Inf when there is none).
func (p Predicted) MinPowerW() float64 {
	if p.MinPowerID < 0 {
		return math.Inf(1)
	}
	return p.Preds[p.MinPowerID].PowerW
}

// Frontier is the predicted Pareto frontier, for display.
func (p Predicted) Frontier() *pareto.Frontier {
	pts := make([]pareto.Point, len(p.Preds))
	for i, pr := range p.Preds {
		pts[i] = pareto.Point{ID: pr.ConfigID, Power: pr.PowerW, Perf: pr.Perf}
	}
	return pareto.New(pts)
}

// SelectAmong runs the cap-selection sweep over already-computed
// predictions (as produced by PredictAll: indexed by configuration ID)
// without copying them. It is the single selection loop behind
// Predicted.Select, so every path yields bitwise-identical Selections
// by construction. An exact perf tie resolves to the lowest ID.
//
//lint:deterministic
func SelectAmong(preds []Prediction, cluster int, capW, z float64) (Selection, error) {
	if len(preds) == 0 {
		return Selection{}, fmt.Errorf("%w: no predictions", ErrNoModel)
	}
	bestID := -1
	bestPerf := math.Inf(-1)
	for _, p := range preds {
		bound := p.PowerW + z*p.PowerStd
		if bound <= capW && p.Perf > bestPerf {
			bestPerf = p.Perf
			bestID = p.ConfigID
		}
	}
	sel := Selection{Cluster: cluster, ConfigID: bestID, MeetsCapPredicted: bestID >= 0}
	if bestID < 0 {
		if i := minPowerIndex(preds); i >= 0 {
			sel.ConfigID = preds[i].ConfigID
		}
	}
	if sel.ConfigID < 0 || sel.ConfigID >= len(preds) {
		return Selection{}, fmt.Errorf("%w: prediction index %d of %d", ErrNoModel, sel.ConfigID, len(preds))
	}
	sel.Config = preds[sel.ConfigID].Config
	sel.Predicted = preds[sel.ConfigID]
	return sel, nil
}

// minPowerIndex is the one floor rule: the index of the lowest
// predicted power, NaN never winning and the lowest index winning a
// tie; -1 when no power is below +Inf.
func minPowerIndex(preds []Prediction) int {
	idx := -1
	minPow := math.Inf(1)
	for i, p := range preds {
		if p.PowerW < minPow {
			minPow, idx = p.PowerW, i
		}
	}
	return idx
}

// MinPredictedPowerW returns the minimum predicted package power across
// predictions — the feasibility floor a cap is measured against.
func MinPredictedPowerW(preds []Prediction) float64 {
	if i := minPowerIndex(preds); i >= 0 {
		return preds[i].PowerW
	}
	return math.Inf(1)
}

// RenderTree returns the classification tree in the indented format of
// the paper's Figure 3.
func (m *Model) RenderTree() string {
	if m.Tree == nil {
		return "<no classifier>"
	}
	return m.Tree.Render()
}

// ClusterSizes returns the number of training kernels per cluster.
func (m *Model) ClusterSizes() []int {
	sizes := make([]int, m.K)
	for _, c := range m.Assignments {
		if c >= 0 && c < m.K {
			sizes[c]++
		}
	}
	return sizes
}
