package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"acsel/internal/apu"
	"acsel/internal/kernels"
	"acsel/internal/profiler"
	"acsel/internal/stats"
)

// trainedModel caches a full characterization + training run: the suite
// has 36 kernels × 42 configs and several tests need the result.
var (
	trainOnce    sync.Once
	cachedProfs  []*KernelProfile
	cachedModel  *Model
	cachedSpace  *apu.Space
	trainFailure error
)

func allKernels() []kernels.Kernel {
	var ks []kernels.Kernel
	for _, c := range kernels.Combos() {
		ks = append(ks, c.Kernels...)
	}
	return ks
}

func trained(t *testing.T) ([]*KernelProfile, *Model, *apu.Space) {
	t.Helper()
	trainOnce.Do(func() {
		p := profiler.New()
		opts := DefaultTrainOptions()
		opts.Iterations = 2
		profs, err := Characterize(p, allKernels(), opts)
		if err != nil {
			trainFailure = err
			return
		}
		m, err := Train(p.Space, profs, opts)
		if err != nil {
			trainFailure = err
			return
		}
		cachedProfs, cachedModel, cachedSpace = profs, m, p.Space
	})
	if trainFailure != nil {
		t.Fatal(trainFailure)
	}
	return cachedProfs, cachedModel, cachedSpace
}

func TestCharacterizeShape(t *testing.T) {
	profs, _, space := trained(t)
	if len(profs) != 65 {
		t.Fatalf("profiles = %d, want 65", len(profs))
	}
	for _, kp := range profs {
		if err := kp.Validate(space); err != nil {
			t.Error(err)
		}
		if kp.Frontier.Len() < 2 {
			t.Errorf("%s: frontier has %d points", kp.KernelID, kp.Frontier.Len())
		}
	}
}

func TestCharacterizeDeterministic(t *testing.T) {
	b := kernels.Suite()[3] // LU, single kernel: cheap
	k := kernels.Instantiate(b.Name, b.Kernels[0], "Small")
	opts := DefaultTrainOptions()
	opts.Iterations = 2
	p1, err := Characterize(profiler.New(), []kernels.Kernel{k}, opts)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Characterize(profiler.New(), []kernels.Kernel{k}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := range p1[0].Stats {
		if p1[0].Stats[id] != p2[0].Stats[id] {
			t.Fatalf("config %d stats differ between runs", id)
		}
	}
}

// TestCharacterizeOrderIndependent regresses the bounded-spawn fix in
// Characterize: results must be positional (profiles[i] belongs to
// ks[i]) and identical regardless of input order, because each worker
// writes only its own index.
func TestCharacterizeOrderIndependent(t *testing.T) {
	ks := allKernels()[:8]
	rev := make([]kernels.Kernel, len(ks))
	for i, k := range ks {
		rev[len(ks)-1-i] = k
	}
	opts := DefaultTrainOptions()
	opts.Iterations = 1
	fwd, err := Characterize(profiler.New(), ks, opts)
	if err != nil {
		t.Fatal(err)
	}
	bwd, err := Characterize(profiler.New(), rev, opts)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*KernelProfile{}
	for _, kp := range bwd {
		byID[kp.KernelID] = kp
	}
	for i, kp := range fwd {
		if kp.KernelID != ks[i].ID() {
			t.Fatalf("profile %d is %s, want input-order %s", i, kp.KernelID, ks[i].ID())
		}
		other := byID[kp.KernelID]
		if other == nil {
			t.Fatalf("%s missing from reversed run", kp.KernelID)
		}
		for id := range kp.Stats {
			if kp.Stats[id] != other.Stats[id] {
				t.Fatalf("%s config %d: stats depend on input order", kp.KernelID, id)
			}
		}
	}
}

func TestFrontiersDifferAcrossArchetypes(t *testing.T) {
	profs, _, _ := trained(t)
	// A branchy kernel and a compute-SIMD kernel should have different
	// frontier device compositions: branchy stays CPU-heavy.
	var simd, branchy *KernelProfile
	for _, kp := range profs {
		switch kp.Name {
		case "CalcFBHourglassForceForElems":
			if kp.Input == "Large" {
				simd = kp
			}
		case "CalcMonotonicQRegionForElems":
			if kp.Input == "Large" {
				branchy = kp
			}
		}
	}
	if simd == nil || branchy == nil {
		t.Fatal("missing expected kernels")
	}
	gpuOnFrontier := func(kp *KernelProfile) int {
		n := 0
		for _, pt := range kp.Frontier.Points() {
			if cachedSpace.Configs[pt.ID].Device == apu.GPUDevice {
				n++
			}
		}
		return n
	}
	if gpuOnFrontier(simd) == 0 {
		t.Error("compute-SIMD kernel has no GPU configs on its frontier")
	}
	if gpuOnFrontier(branchy) >= gpuOnFrontier(simd) {
		t.Errorf("branchy kernel has %d GPU frontier configs vs %d for SIMD",
			gpuOnFrontier(branchy), gpuOnFrontier(simd))
	}
}

func TestDissimilarityMatrixProperties(t *testing.T) {
	profs, _, _ := trained(t)
	m := DissimilarityMatrix(profs[:20])
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Len(); i++ {
		for j := 0; j < m.Len(); j++ {
			d := m.At(i, j)
			if d < 0 || d > 1 {
				t.Fatalf("dissimilarity out of [0,1]: %v", d)
			}
		}
	}
}

func TestSimilarKernelsLessDissimilar(t *testing.T) {
	profs, _, _ := trained(t)
	// Two compute-SIMD LULESH kernels should be closer to each other
	// than either is to a branchy kernel, on average.
	var a, b, c *KernelProfile
	var ai, bi, ci int
	for i, kp := range profs {
		if kp.Input != "Large" || kp.Benchmark != "LULESH" {
			continue
		}
		switch kp.Name {
		case "CalcFBHourglassForceForElems":
			a, ai = kp, i
		case "CalcHourglassControlForElems":
			b, bi = kp, i
		case "CalcMonotonicQRegionForElems":
			c, ci = kp, i
		}
	}
	if a == nil || b == nil || c == nil {
		t.Fatal("missing kernels")
	}
	m := DissimilarityMatrix(profs)
	dAB := m.At(ai, bi)
	dAC := m.At(ai, ci)
	if dAB >= dAC {
		t.Errorf("same-archetype dissimilarity %v >= cross-archetype %v", dAB, dAC)
	}
}

func TestTrainProducesCompleteModel(t *testing.T) {
	_, m, _ := trained(t)
	if m.K != 5 || len(m.Clusters) != 5 {
		t.Fatalf("K = %d, clusters = %d", m.K, len(m.Clusters))
	}
	for c, cm := range m.Clusters {
		for _, dev := range []apu.Device{apu.CPUDevice, apu.GPUDevice} {
			if cm.PerfByDevice[dev] == nil || cm.PowerByDevice[dev] == nil {
				t.Errorf("cluster %d missing %v models", c, dev)
			}
		}
	}
	if m.Tree == nil {
		t.Fatal("no classifier")
	}
	sizes := m.ClusterSizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 65 {
		t.Errorf("cluster sizes %v sum to %d, want 65", sizes, total)
	}
}

func TestTrainErrorsOnTooFewKernels(t *testing.T) {
	profs, _, space := trained(t)
	if _, err := Train(space, profs[:3], DefaultTrainOptions()); err == nil {
		t.Fatal("expected ErrTooFewKernels")
	}
}

func TestClassifierSelfAccuracy(t *testing.T) {
	profs, m, _ := trained(t)
	// On training kernels the tree should recover the cluster labels
	// reasonably well (not perfectly: depth-limited).
	correct := 0
	for _, kp := range profs {
		c, err := m.Classify(SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample})
		if err != nil {
			t.Fatal(err)
		}
		if c == m.Assignments[kp.KernelID] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(profs))
	if acc < 0.7 {
		t.Errorf("training-set classification accuracy = %v, want >= 0.7", acc)
	}
}

func TestPredictAllFinite(t *testing.T) {
	profs, m, space := trained(t)
	for _, kp := range profs[:10] {
		preds, c, err := m.PredictAll(SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample})
		if err != nil {
			t.Fatal(err)
		}
		if c < 0 || c >= m.K {
			t.Fatalf("cluster %d", c)
		}
		if len(preds) != space.Len() {
			t.Fatalf("predictions = %d", len(preds))
		}
		for _, p := range preds {
			if p.Perf <= 0 || math.IsNaN(p.Perf) || math.IsInf(p.Perf, 0) {
				t.Fatalf("%s config %d: perf %v", kp.KernelID, p.ConfigID, p.Perf)
			}
			if p.PowerW < minPredictedPowerW || math.IsNaN(p.PowerW) {
				t.Fatalf("%s config %d: power %v", kp.KernelID, p.ConfigID, p.PowerW)
			}
		}
	}
}

func TestPredictionAccuracyOnTraining(t *testing.T) {
	profs, m, _ := trained(t)
	// Median relative errors over training kernels should be modest:
	// the models are linear and clustered, not exact.
	var perfErrs, powErrs []float64
	for _, kp := range profs {
		preds, _, err := m.PredictAll(SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample})
		if err != nil {
			t.Fatal(err)
		}
		for id, p := range preds {
			truePerf := kp.Stats[id].MeanPerf
			truePow := kp.Stats[id].MeanPower
			perfErrs = append(perfErrs, math.Abs(p.Perf-truePerf)/truePerf)
			powErrs = append(powErrs, math.Abs(p.PowerW-truePow)/truePow)
		}
	}
	medPerf := median(perfErrs)
	medPow := median(powErrs)
	if medPerf > 0.5 {
		t.Errorf("median perf relative error = %v", medPerf)
	}
	if medPow > 0.3 {
		t.Errorf("median power relative error = %v", medPow)
	}
	t.Logf("median relative errors: perf %.3f, power %.3f", medPerf, medPow)
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

func TestPredictedFrontier(t *testing.T) {
	profs, m, _ := trained(t)
	kp := profs[0]
	pred, err := m.Predict(SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample})
	if err != nil {
		t.Fatal(err)
	}
	if f := pred.Frontier(); f.Len() < 2 {
		t.Errorf("predicted frontier has %d points", f.Len())
	}
	if len(pred.Preds) != cachedSpace.Len() {
		t.Errorf("preds = %d", len(pred.Preds))
	}
}

func TestSelectUnderCapRespectsPrediction(t *testing.T) {
	profs, m, _ := trained(t)
	kp := profs[0]
	pred, err := m.Predict(SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample})
	if err != nil {
		t.Fatal(err)
	}
	for _, cap := range []float64{12, 18, 25, 35, 60} {
		sel, err := pred.Select(cap, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sel.MeetsCapPredicted && sel.Predicted.PowerW > cap {
			t.Errorf("cap %v: claims to meet cap but predicts %v W", cap, sel.Predicted.PowerW)
		}
		if sel.ConfigID < 0 || sel.ConfigID >= cachedSpace.Len() {
			t.Errorf("cap %v: config ID %d", cap, sel.ConfigID)
		}
	}
}

func TestSelectUnderCapMonotonePerf(t *testing.T) {
	profs, m, _ := trained(t)
	kp := profs[5]
	pred, err := m.Predict(SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample})
	if err != nil {
		t.Fatal(err)
	}
	prevPerf := -1.0
	for _, cap := range []float64{14, 18, 22, 28, 36, 50} {
		sel, err := pred.Select(cap, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sel.MeetsCapPredicted {
			if sel.Predicted.Perf < prevPerf-1e-9 {
				t.Errorf("predicted perf decreased as cap rose: %v -> %v at cap %v", prevPerf, sel.Predicted.Perf, cap)
			}
			prevPerf = sel.Predicted.Perf
		}
	}
}

func TestSelectUnderCapFallback(t *testing.T) {
	profs, m, _ := trained(t)
	kp := profs[0]
	pred, err := m.Predict(SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := pred.Select(0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sel.MeetsCapPredicted {
		t.Error("impossible cap cannot be met")
	}
	// The fallback must be the minimum-predicted-power config.
	if sel.ConfigID != pred.MinPowerID {
		t.Errorf("fallback config %d, MinPowerID %d", sel.ConfigID, pred.MinPowerID)
	}
	for _, p := range pred.Preds {
		if p.PowerW < sel.Predicted.PowerW-1e-9 {
			t.Errorf("fallback %v W is not minimal (%v W exists)", sel.Predicted.PowerW, p.PowerW)
		}
	}
}

func TestVarAwareSelectionMoreConservative(t *testing.T) {
	profs, m, _ := trained(t)
	kp := profs[2]
	pred, err := m.Predict(SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample})
	if err != nil {
		t.Fatal(err)
	}
	base, err := pred.Select(25, 0)
	if err != nil {
		t.Fatal(err)
	}
	va, err := pred.Select(25, 2)
	if err != nil {
		t.Fatal(err)
	}
	if va.MeetsCapPredicted && base.MeetsCapPredicted && va.Predicted.PowerW > base.Predicted.PowerW+1e-9 {
		t.Errorf("variance-aware pick draws more predicted power (%v) than base (%v)",
			va.Predicted.PowerW, base.Predicted.PowerW)
	}
	if _, err := pred.Select(25, -1); err == nil {
		t.Error("negative z accepted")
	}
}

func TestRenderTreeMentionsClusters(t *testing.T) {
	_, m, _ := trained(t)
	out := m.RenderTree()
	if !strings.Contains(out, "cluster") {
		t.Errorf("tree rendering:\n%s", out)
	}
	empty := &Model{}
	if empty.RenderTree() != "<no classifier>" {
		t.Error("empty model tree rendering")
	}
}

func TestClassifierFeatureNamesParallel(t *testing.T) {
	profs, _, _ := trained(t)
	kp := profs[0]
	f := ClassifierFeatures(kp.CPUSample, kp.GPUSample)
	if len(f) != len(ClassifierFeatureNames()) {
		t.Fatalf("features %d names %d", len(f), len(ClassifierFeatureNames()))
	}
}

func TestOnlineSelectionLatency(t *testing.T) {
	// §II/IV-C: "requires less than one millisecond to make each
	// configuration selection". Verify in-process.
	profs, m, _ := trained(t)
	kp := profs[0]
	sr := SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pred, err := m.Predict(sr)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pred.Select(25, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	perOp := res.NsPerOp()
	if perOp > 1_000_000 {
		t.Errorf("selection latency = %d ns, paper claims < 1 ms", perOp)
	}
	t.Logf("online selection latency: %d ns/op", perOp)
}

func BenchmarkTrainFullSuite(b *testing.B) {
	p := profiler.New()
	opts := DefaultTrainOptions()
	opts.Iterations = 1
	profs, err := Characterize(p, allKernels(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(p.Space, profs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOnlineSelection(b *testing.B) {
	p := profiler.New()
	opts := DefaultTrainOptions()
	opts.Iterations = 1
	profs, err := Characterize(p, allKernels(), opts)
	if err != nil {
		b.Fatal(err)
	}
	m, err := Train(p.Space, profs, opts)
	if err != nil {
		b.Fatal(err)
	}
	sr := SampleRuns{CPU: profs[0].CPUSample, GPU: profs[0].GPUSample}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred, err := m.Predict(sr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pred.Select(25, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: the predicted frontier is a subset of the prediction set
// and is internally non-dominated, for every profiled kernel.
func TestPropertyPredictedFrontierConsistent(t *testing.T) {
	profs, m, _ := trained(t)
	for _, kp := range profs {
		pred, err := m.Predict(SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample})
		if err != nil {
			t.Fatal(err)
		}
		byID := map[int]Prediction{}
		for _, p := range pred.Preds {
			byID[p.ConfigID] = p
		}
		pts := pred.Frontier().Points()
		for i, pt := range pts {
			p, ok := byID[pt.ID]
			if !ok {
				t.Fatalf("%s: frontier point %d not in predictions", kp.KernelID, pt.ID)
			}
			if p.Perf != pt.Perf || p.PowerW != pt.Power {
				t.Fatalf("%s: frontier point disagrees with prediction", kp.KernelID)
			}
			if i > 0 && (pt.Power <= pts[i-1].Power || pt.Perf <= pts[i-1].Perf) {
				t.Fatalf("%s: frontier not strictly increasing", kp.KernelID)
			}
		}
	}
}

// Property: for every kernel and every cap, a selection that claims to
// meet the cap predicts power within it, and the selected config always
// belongs to the space.
func TestPropertySelectionInvariants(t *testing.T) {
	profs, m, space := trained(t)
	caps := []float64{5, 11, 14, 17, 20, 24, 29, 35, 45, 60}
	for _, kp := range profs[:20] {
		pred, err := m.Predict(SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample})
		if err != nil {
			t.Fatal(err)
		}
		for _, capW := range caps {
			sel, err := pred.Select(capW, 0)
			if err != nil {
				t.Fatal(err)
			}
			if sel.ConfigID < 0 || sel.ConfigID >= space.Len() {
				t.Fatalf("config ID %d out of space", sel.ConfigID)
			}
			if sel.MeetsCapPredicted && sel.Predicted.PowerW > capW+1e-9 {
				t.Fatalf("%s cap %v: claims compliance at predicted %v W",
					kp.KernelID, capW, sel.Predicted.PowerW)
			}
			if !sel.MeetsCapPredicted {
				// Fallback must be the minimum-predicted-power config.
				for _, p := range pred.Preds {
					if p.PowerW < sel.Predicted.PowerW-1e-9 {
						t.Fatalf("%s cap %v: fallback not minimal", kp.KernelID, capW)
					}
				}
			}
		}
	}
}

// Failure injection: a model whose classifier was trained but whose
// cluster list is truncated must fail loudly, not index out of range.
func TestPredictAllClusterOutOfRange(t *testing.T) {
	_, m, _ := trained(t)
	broken := *m
	broken.Clusters = m.Clusters[:1] // classifier may emit cluster >= 1
	profs := cachedProfs
	var tripped bool
	for _, kp := range profs {
		sr := SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample}
		c, err := broken.Classify(sr)
		if err != nil {
			t.Fatal(err)
		}
		if c >= 1 {
			if _, _, err := broken.PredictAll(sr); err == nil {
				t.Fatalf("%s: out-of-range cluster %d not rejected", kp.KernelID, c)
			}
			tripped = true
			break
		}
	}
	if !tripped {
		t.Skip("no kernel classified into a truncated cluster")
	}
}

// Failure injection: a cluster missing a device regression must be
// reported as ErrNoModel.
func TestPredictAllMissingDeviceModel(t *testing.T) {
	profs, m, _ := trained(t)
	broken := *m
	broken.Clusters = append([]ClusterModel(nil), m.Clusters...)
	for i := range broken.Clusters {
		cm := broken.Clusters[i]
		cm.PerfByDevice = map[apu.Device]*stats.Regression{apu.CPUDevice: cm.PerfByDevice[apu.CPUDevice]}
		broken.Clusters[i] = cm
	}
	sr := SampleRuns{CPU: profs[0].CPUSample, GPU: profs[0].GPUSample}
	if _, _, err := broken.PredictAll(sr); err == nil {
		t.Fatal("missing GPU regression not detected")
	}
}

func TestDiagnostics(t *testing.T) {
	_, m, _ := trained(t)
	d, err := m.Diagnose()
	if err != nil {
		t.Fatal(err)
	}
	if d.K != 5 || len(d.Clusters) != 5 {
		t.Fatalf("diagnostics shape: %+v", d)
	}
	totalSize := 0
	for _, c := range d.Clusters {
		totalSize += c.Size
		// R² can be poor for tiny clusters but must be finite and <= 1.
		for _, r2 := range []float64{c.PerfR2CPU, c.PerfR2GPU, c.PowerR2CPU, c.PowerR2GPU} {
			if math.IsNaN(r2) || r2 > 1+1e-9 {
				t.Errorf("cluster %d: R² = %v", c.Cluster, r2)
			}
		}
		if c.PowerStdCPU < 0 || c.PowerStdGPU < 0 {
			t.Errorf("cluster %d: negative residual std", c.Cluster)
		}
	}
	if totalSize != 65 {
		t.Errorf("cluster sizes sum to %d", totalSize)
	}
	out, err := m.ReportDiagnostics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "perf R²") {
		t.Errorf("report:\n%s", out)
	}
	if _, err := (&Model{}).Diagnose(); err == nil {
		t.Error("untrained model diagnosed")
	}
	if _, err := (&Model{}).ReportDiagnostics(); err == nil {
		t.Error("untrained model reported")
	}
}

// The offline stage characterizes one machine (§III: "the offline stage
// is conducted only once to characterize a new system"). A model
// trained on one machine must not silently transfer to different
// hardware: on a machine with a much faster GPU, the Trinity-trained
// model's power predictions degrade, and re-characterizing on the new
// machine restores accuracy.
func TestModelDoesNotTransferAcrossMachines(t *testing.T) {
	opts := DefaultTrainOptions()
	opts.Iterations = 1
	ks := allKernels()

	// Machine A: default Trinity.
	pA := profiler.New()
	profsA, err := Characterize(pA, ks, opts)
	if err != nil {
		t.Fatal(err)
	}
	modelA, err := Train(pA.Space, profsA, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Machine B: a hypothetical successor — much faster, hungrier GPU.
	pB := profiler.New()
	pB.Machine.GPUFlopsPerCycle *= 2
	pB.Machine.GPUDynWPerV2GHz *= 1.6
	profsB, err := Characterize(pB, ks, opts)
	if err != nil {
		t.Fatal(err)
	}
	modelB, err := Train(pB.Space, profsB, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Error over GPU configurations only — that's where machine B
	// differs (CPU-config power is identical on both machines, so a
	// whole-space median would mask the transfer failure).
	powerErr := func(m *Model, profs []*KernelProfile) float64 {
		var errs []float64
		for _, kp := range profs {
			preds, _, err := m.PredictAll(SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample})
			if err != nil {
				t.Fatal(err)
			}
			for id, p := range preds {
				if m.Space.Configs[id].Device != apu.GPUDevice {
					continue
				}
				tw := kp.Stats[id].MeanPower
				errs = append(errs, math.Abs(p.PowerW-tw)/tw)
			}
		}
		return median(errs)
	}

	stale := powerErr(modelA, profsB)     // Trinity model judged on machine B
	refreshed := powerErr(modelB, profsB) // model retrained on machine B
	if stale < refreshed*1.25 {
		t.Errorf("stale cross-machine model error %.3f not clearly worse than refreshed %.3f — offline characterization would be redundant", stale, refreshed)
	}
	t.Logf("median power APE on machine B: stale Trinity model %.1f%%, recharacterized %.1f%%",
		stale*100, refreshed*100)
}
