package pareto

import (
	"math"
	"math/rand"
	"testing"
)

func TestDominates(t *testing.T) {
	a := Point{0, 10, 0.5}
	cases := []struct {
		b    Point
		want bool
	}{
		{Point{1, 11, 0.4}, true},  // strictly better both
		{Point{1, 10, 0.4}, true},  // equal power, better perf
		{Point{1, 11, 0.5}, true},  // better power, equal perf
		{Point{1, 10, 0.5}, false}, // identical
		{Point{1, 9, 0.6}, false},  // b dominates a
		{Point{1, 9, 0.4}, false},  // trade-off
		{Point{1, 11, 0.6}, false}, // trade-off
	}
	for i, c := range cases {
		if got := Dominates(a, c.b); got != c.want {
			t.Errorf("case %d: Dominates = %v, want %v", i, got, c.want)
		}
	}
}

func TestNewExtractsFrontier(t *testing.T) {
	pts := []Point{
		{0, 10, 0.2},
		{1, 12, 0.5},
		{2, 11, 0.3},
		{3, 15, 0.4}, // dominated by 1
		{4, 20, 1.0},
		{5, 10, 0.1}, // dominated by 0
	}
	f := New(pts)
	ids := f.IDs()
	want := []int{0, 2, 1, 4}
	if len(ids) != len(want) {
		t.Fatalf("frontier IDs = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("frontier IDs = %v, want %v", ids, want)
		}
	}
}

func TestNewDropsNaN(t *testing.T) {
	f := New([]Point{{0, math.NaN(), 1}, {1, 1, math.NaN()}, {2, 5, 0.5}})
	if f.Len() != 1 || f.IDs()[0] != 2 {
		t.Errorf("frontier = %v", f.Points())
	}
}

func TestNewEmpty(t *testing.T) {
	f := New(nil)
	if f.Len() != 0 {
		t.Error("empty input should give empty frontier")
	}
}

func TestFrontierSortedAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var pts []Point
	for i := 0; i < 100; i++ {
		pts = append(pts, Point{i, 10 + rng.Float64()*40, rng.Float64()})
	}
	f := New(pts)
	prev := f.Points()[0]
	for _, p := range f.Points()[1:] {
		if p.Power <= prev.Power || p.Perf <= prev.Perf {
			t.Fatalf("frontier not strictly increasing: %v then %v", prev, p)
		}
		prev = p
	}
}

func TestPositionOf(t *testing.T) {
	f := New([]Point{{7, 10, 0.2}, {3, 20, 0.6}})
	if p := f.PositionOf(3); p != 1 {
		t.Errorf("PositionOf(3) = %d", p)
	}
	if p := f.PositionOf(99); p != -1 {
		t.Errorf("PositionOf(99) = %d", p)
	}
}

func TestSharedOrder(t *testing.T) {
	a := New([]Point{{1, 10, 0.1}, {2, 20, 0.5}, {3, 30, 1.0}})
	b := New([]Point{{3, 9, 0.3}, {2, 18, 0.7}, {4, 40, 1.0}})
	ra, rb, ids := SharedOrder(a, b)
	// shared IDs are 2 and 3; along a: 2 at pos 1, 3 at pos 2;
	// along b: 3 at pos 0, 2 at pos 1.
	if len(ids) != 2 {
		t.Fatalf("ids = %v", ids)
	}
	if ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("ids = %v", ids)
	}
	if ra[0] != 1 || ra[1] != 2 || rb[0] != 1 || rb[1] != 0 {
		t.Fatalf("ranks = %v, %v", ra, rb)
	}
}

func TestSharedOrderDisjoint(t *testing.T) {
	a := New([]Point{{1, 10, 0.1}})
	b := New([]Point{{2, 10, 0.1}})
	ra, rb, ids := SharedOrder(a, b)
	if len(ra) != 0 || len(rb) != 0 || len(ids) != 0 {
		t.Errorf("expected empty shared order, got %v %v %v", ra, rb, ids)
	}
}

func TestNormalize(t *testing.T) {
	f := New([]Point{{0, 10, 2}, {1, 20, 8}})
	n := f.Normalize()
	pts := n.Points()
	if pts[1].Perf != 1 {
		t.Errorf("max perf after normalize = %v", pts[1].Perf)
	}
	if math.Abs(pts[0].Perf-0.25) > 1e-12 {
		t.Errorf("normalized first perf = %v", pts[0].Perf)
	}
	// Original untouched.
	if f.Points()[1].Perf != 8 {
		t.Error("Normalize mutated the original")
	}
}

func TestNormalizeEmpty(t *testing.T) {
	if New(nil).Normalize().Len() != 0 {
		t.Error("normalize of empty should be empty")
	}
}

// Property: every input point is either on the frontier or dominated by
// some frontier point; no frontier point dominates another.
func TestFrontierProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{i, 5 + rng.Float64()*50, rng.Float64() * 3}
		}
		f := New(pts)
		front := f.Points()
		for i := range front {
			for j := range front {
				if i != j && Dominates(front[i], front[j]) {
					t.Fatalf("frontier point %v dominates frontier point %v", front[i], front[j])
				}
			}
		}
		onFront := map[int]bool{}
		for _, p := range front {
			onFront[p.ID] = true
		}
		for _, p := range pts {
			if onFront[p.ID] {
				continue
			}
			dominated := false
			for _, q := range front {
				if Dominates(q, p) || (q.Power == p.Power && q.Perf == p.Perf) {
					dominated = true
					break
				}
			}
			if !dominated {
				t.Fatalf("trial %d: point %v neither on frontier nor dominated", trial, p)
			}
		}
	}
}

func BenchmarkFrontierExtraction(b *testing.B) {
	// 42 configurations, the size of the paper's machine space.
	rng := rand.New(rand.NewSource(5))
	pts := make([]Point, 42)
	for i := range pts {
		pts[i] = Point{i, 10 + rng.Float64()*40, rng.Float64()}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(pts)
	}
}
