package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"

	acselmetrics "acsel/internal/metrics"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It returns 0 for no samples.
func quantile(xs []float32, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !slices.IsSorted(xs) {
		slices.Sort(xs)
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(xs[lo])*(1-frac) + float64(xs[hi])*frac
}

func median64(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// famTotal sums one metric family of a registry snapshot: counter and
// gauge values, or histogram sums (sum=true) / observation counts. An
// optional label filter keeps only children carrying that label value.
// A family the program no longer registers reads as absent (ok=false),
// so deleting it never breaks the benchmark.
func famTotal(s acselmetrics.Snapshot, name string, sum bool, labelKey, labelVal string) (float64, bool) {
	f, ok := s.Family(name)
	if !ok {
		return 0, false
	}
	var v float64
	for _, m := range f.Metrics {
		if labelKey != "" && m.Labels[labelKey] != labelVal {
			continue
		}
		switch {
		case m.Value != nil:
			v += *m.Value
		case sum && m.Sum != nil:
			v += *m.Sum
		case !sum && m.Count != nil:
			v += float64(*m.Count)
		}
	}
	return v, true
}

// famDelta is famTotal(after) - famTotal(before); absent families give 0.
func famDelta(before, after acselmetrics.Snapshot, name string, sum bool, labelKey, labelVal string) float64 {
	a, ok := famTotal(after, name, sum, labelKey, labelVal)
	if !ok {
		return 0
	}
	b, _ := famTotal(before, name, sum, labelKey, labelVal)
	return a - b
}

// procSample is the process-wide resource state at a phase boundary.
type procSample struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
	// stealTicks and allTicks are the machine's CPU time stolen by the
	// hypervisor and its total CPU time, from /proc/stat (0 where absent).
	stealTicks, allTicks float64
}

// stealFrac is the share of the machine's CPU time between a and b that
// the hypervisor gave to other guests. On a shared host it explains
// run-to-run swings of every time metric.
func stealFrac(a, b procSample) float64 {
	if b.allTicks <= a.allTicks {
		return 0
	}
	return (b.stealTicks - a.stealTicks) / (b.allTicks - a.allTicks)
}

// readTicks parses the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal (the guest columns that may
// follow are already counted in user and nice).
func readTicks() (steal, all float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0 // not Linux: steal is reported as 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		all += v
		if i == 7 {
			steal = v
		}
	}
	return steal, all
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	p := procSample{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
	p.stealTicks, p.allTicks = readTicks()
	if cpuSamples[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = cpuSamples[0].Value.Float64()
	}
	if cpuSamples[1].Value.Kind() == metrics.KindFloat64 {
		p.totalCPU = cpuSamples[1].Value.Float64()
	}
	return p
}

// liveHeapMB forces a collection and reports the heap still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
