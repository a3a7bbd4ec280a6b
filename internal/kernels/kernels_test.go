package kernels

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"acsel/internal/apu"
)

func TestSuiteShapeMatchesPaper(t *testing.T) {
	// §IV-B: LULESH 20 kernels, CoMD 7, SMC 8, LU 1 → 36 total;
	// benchmark/input combinations total 65.
	suite := Suite()
	if len(suite) != 4 {
		t.Fatalf("benchmarks = %d, want 4", len(suite))
	}
	wantKernels := map[string]int{"LULESH": 20, "CoMD": 7, "SMC": 8, "LU": 1}
	for _, b := range suite {
		if got := len(b.Kernels); got != wantKernels[b.Name] {
			t.Errorf("%s kernels = %d, want %d", b.Name, got, wantKernels[b.Name])
		}
	}
	if KernelCount() != 36 {
		t.Errorf("KernelCount = %d, want 36", KernelCount())
	}
	if ComboKernelCount() != 65 {
		t.Errorf("ComboKernelCount = %d, want 65", ComboKernelCount())
	}
}

func TestTimeSharesSumToOne(t *testing.T) {
	for _, b := range Suite() {
		sum := 0.0
		for _, k := range b.Kernels {
			if k.TimeShare <= 0 {
				t.Errorf("%s/%s: non-positive time share", b.Name, k.Name)
			}
			sum += k.TimeShare
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s time shares sum to %v, want 1", b.Name, sum)
		}
	}
}

func TestKernelNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Suite() {
		for _, k := range b.Kernels {
			key := b.Name + "/" + k.Name
			if seen[key] {
				t.Errorf("duplicate kernel %s", key)
			}
			seen[key] = true
		}
	}
}

func TestInstantiateDeterministic(t *testing.T) {
	b := Suite()[0]
	a1 := Instantiate(b.Name, b.Kernels[0], "Small")
	a2 := Instantiate(b.Name, b.Kernels[0], "Small")
	if a1.Workload != a2.Workload {
		t.Error("Instantiate not deterministic")
	}
	large := Instantiate(b.Name, b.Kernels[0], "Large")
	if large.Workload.FLOPs <= a1.Workload.FLOPs {
		t.Error("Large input should carry more work")
	}
}

func TestInstantiatePanicsOnUnknownInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := Suite()[0]
	Instantiate(b.Name, b.Kernels[0], "Gigantic")
}

func TestAllWorkloadsValid(t *testing.T) {
	for _, c := range Combos() {
		for _, k := range c.Kernels {
			if err := k.Workload.Validate(); err != nil {
				t.Errorf("%s: %v", k.ID(), err)
			}
		}
	}
}

func TestAllWorkloadsRunnable(t *testing.T) {
	m := apu.DefaultMachine()
	space := apu.NewSpace()
	for _, c := range Combos() {
		for _, k := range c.Kernels {
			for _, cfg := range []apu.Config{space.Configs[0], apu.SampleConfigCPU(), apu.SampleConfigGPU()} {
				e, err := m.Run(k.Workload, cfg)
				if err != nil {
					t.Fatalf("%s at %v: %v", k.ID(), cfg, err)
				}
				if e.TimeSec <= 0 || math.IsNaN(e.TimeSec) || math.IsInf(e.TimeSec, 0) {
					t.Fatalf("%s at %v: time %v", k.ID(), cfg, e.TimeSec)
				}
			}
		}
	}
}

func TestComboLabels(t *testing.T) {
	combos := Combos()
	labels := map[string]bool{}
	for _, c := range combos {
		labels[c.Label()] = true
	}
	for _, want := range []string{"LULESH Small", "LULESH Large", "CoMD Small", "CoMD Large", "SMC", "LU Small", "LU Medium", "LU Large"} {
		if !labels[want] {
			t.Errorf("missing combo label %q (have %v)", want, labels)
		}
	}
	if len(combos) != 8 {
		t.Errorf("combos = %d, want 8", len(combos))
	}
}

func TestArchetypeDiversityInPowerAndScaling(t *testing.T) {
	// The paper motivates clustering with the spread across kernels:
	// best-config power varies widely (19 W vs 55 W) and perf ranges
	// within a kernel vary from ~1.6x to hundreds. Check our catalog
	// spans a comparable spread.
	m := apu.DefaultMachine()
	space := apu.NewSpace()
	var minBestPower, maxBestPower = math.Inf(1), math.Inf(-1)
	var minRange, maxRange = math.Inf(1), math.Inf(-1)
	for _, c := range Combos() {
		for _, k := range c.Kernels {
			bestPerf, worstPerf := math.Inf(-1), math.Inf(1)
			bestPower := 0.0
			for _, cfg := range space.Configs {
				e, err := m.Run(k.Workload, cfg)
				if err != nil {
					t.Fatal(err)
				}
				p := e.Perf()
				if p > bestPerf {
					bestPerf = p
					bestPower = e.TotalPowerW()
				}
				if p < worstPerf {
					worstPerf = p
				}
			}
			if bestPower < minBestPower {
				minBestPower = bestPower
			}
			if bestPower > maxBestPower {
				maxBestPower = bestPower
			}
			r := bestPerf / worstPerf
			if r < minRange {
				minRange = r
			}
			if r > maxRange {
				maxRange = r
			}
		}
	}
	if maxBestPower-minBestPower < 15 {
		t.Errorf("best-config power spread too small: %v..%v W", minBestPower, maxBestPower)
	}
	if minRange > 8 {
		t.Errorf("min perf range %v: expected some insensitive kernels", minRange)
	}
	if maxRange < 30 {
		t.Errorf("max perf range %v: expected some highly sensitive kernels", maxRange)
	}
}

func TestGPUFriendlyAndHostileKernelsExist(t *testing.T) {
	// Device selection must matter (§I): some kernels should prefer the
	// GPU at max settings, others the CPU.
	m := apu.DefaultMachine()
	gpuWins, cpuWins := 0, 0
	for _, c := range Combos() {
		for _, k := range c.Kernels {
			ec, err := m.Run(k.Workload, apu.SampleConfigCPU())
			if err != nil {
				t.Fatal(err)
			}
			eg, err := m.Run(k.Workload, apu.SampleConfigGPU())
			if err != nil {
				t.Fatal(err)
			}
			if eg.Perf() > ec.Perf() {
				gpuWins++
			} else {
				cpuWins++
			}
		}
	}
	if gpuWins < 10 || cpuWins < 10 {
		t.Errorf("device preference unbalanced: GPU wins %d, CPU wins %d", gpuWins, cpuWins)
	}
}

func TestLUIsStronglyGPUFriendly(t *testing.T) {
	// §V-D: on LU, switching CPU→GPU jumps normalized performance from
	// ~10% to ~89%. LU must clearly prefer the GPU.
	m := apu.DefaultMachine()
	lu := Instantiate("LU", Suite()[3].Kernels[0], "Large")
	ec, _ := m.Run(lu.Workload, apu.SampleConfigCPU())
	eg, _ := m.Run(lu.Workload, apu.SampleConfigGPU())
	if eg.Perf() < 2*ec.Perf() {
		t.Errorf("LU GPU speedup = %v, want >= 2x", eg.Perf()/ec.Perf())
	}
}

func TestIterationRNGStability(t *testing.T) {
	a := IterationRNG("LULESH/Small/foo", 3, 1).Float64()
	b := IterationRNG("LULESH/Small/foo", 3, 1).Float64()
	if a != b {
		t.Error("IterationRNG not stable")
	}
	c := IterationRNG("LULESH/Small/foo", 3, 2).Float64()
	if a == c {
		t.Error("IterationRNG should differ across iterations")
	}
	d := IterationRNG("LULESH/Small/foo", 4, 1).Float64()
	if a == d {
		t.Error("IterationRNG should differ across configs")
	}
}

func TestKernelID(t *testing.T) {
	k := Kernel{Benchmark: "A", Input: "B", Name: "C"}
	if k.ID() != "A/B/C" {
		t.Errorf("ID = %q", k.ID())
	}
}

func TestArchetypeString(t *testing.T) {
	for a := ComputeSIMD; a <= Balanced; a++ {
		if a.String() == "" {
			t.Errorf("empty string for archetype %d", a)
		}
	}
	if Archetype(99).String() == "" {
		t.Error("unknown archetype should render")
	}
}

func BenchmarkInstantiateSuite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Combos()
	}
}

func TestReportSuite(t *testing.T) {
	out := ReportSuite()
	for _, want := range []string{"LULESH", "CoMD", "SMC", "LU", "compute-simd", "branchy", "CalcFBHourglassForceForElems"} {
		if !strings.Contains(out, want) {
			t.Errorf("suite report missing %q", want)
		}
	}
}

// referenceRNG is the stream construction IterationRNG replaced:
// formatted FNV-1a input and a seeded math/rand source.
func referenceRNG(kernelID string, configID, iteration int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d", kernelID, configID, iteration)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

func TestIterationRNGMatchesSeededMathRand(t *testing.T) {
	ids := []string{"LULESH/Small/CalcQForElems", "", strings.Repeat("x", 200)}
	for _, id := range ids {
		for _, cfg := range []int{0, 7, 41, -1} {
			for _, it := range []int{0, 1, 2, math.MaxInt} {
				got, want := IterationRNG(id, cfg, it), referenceRNG(id, cfg, it)
				for k := 0; k < 50; k++ {
					if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
						t.Fatalf("IterationRNG(%q, %d, %d) draw %d = %v, want %v", id, cfg, it, k, g, w)
					}
				}
			}
		}
	}
}

// rngSink keeps measured streams on the heap, as real callers do.
var rngSink *rand.Rand

// TestIterationRNGAllocatesNoMoreThanMathRand holds a whole
// IterationRNG call, hashing included, to the cost of the bare
// rand.New(rand.NewSource(seed)) pair it returns.
func TestIterationRNGAllocatesNoMoreThanMathRand(t *testing.T) {
	perStream := func(mk func(i int) *rand.Rand) (allocs, bytes uint64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const n = 1000
		rngSink = mk(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			rngSink = mk(i)
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n
	}
	gotA, gotB := perStream(func(i int) *rand.Rand { return IterationRNG("LULESH/Small/CalcQForElems", 17, i) })
	refA, refB := perStream(func(i int) *rand.Rand { return rand.New(rand.NewSource(int64(i))) })
	if gotA > refA || gotB > refB {
		t.Errorf("IterationRNG costs %d allocs / %d B per stream, rand.New(rand.NewSource) %d / %d",
			gotA, gotB, refA, refB)
	}
}
