package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestKindAndSiteStrings(t *testing.T) {
	kinds := []Kind{SensorDropout, SensorStuck, SensorSpike, SensorDrift,
		PStateFail, PStateDelay, CounterCorrupt, KernelHang,
		NetDrop, NetDelay, NetCorrupt}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d renders %q", int(k), s)
		}
		seen[s] = true
	}
	if Kind(99).String() == "" || Site(99).String() == "" {
		t.Error("unknown enum renders empty")
	}
	for _, s := range []Site{SiteSMU, SitePState, SiteCounter, SiteKernel, SiteNet} {
		if s.String() == "" {
			t.Errorf("site %d renders empty", int(s))
		}
	}
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if fs := in.At(SiteSMU, "k|0", 3); fs != nil {
		t.Errorf("nil injector returned %v", fs)
	}
	if in.Active(SiteSMU) {
		t.Error("nil injector active")
	}
	if in.Scenario().Name != "clean" || in.Seed() != 0 || in.String() != "clean:0" {
		t.Error("nil injector identity")
	}
}

func TestAtIsDeterministicAndOrderIndependent(t *testing.T) {
	sc, ok := ScenarioByName("blackout")
	if !ok {
		t.Fatal("no blackout scenario")
	}
	a := NewInjector(sc, 42)
	b := NewInjector(sc, 42)
	type ev struct {
		site Site
		key  string
		iter int
	}
	events := []ev{
		{SiteSMU, "LULESH/Small/CalcQForElems|3", 0},
		{SiteSMU, "LULESH/Small/CalcQForElems|3", 1},
		{SitePState, "LULESH/Small/CalcQForElems", 2},
		{SiteCounter, "CoMD/Large/ComputeForceLJ|17", 5},
		{SiteKernel, "SMC/Default/Hypterm|9", 8},
	}
	// Query a in order and b in reverse: identical resolutions.
	got := map[ev][]Fault{}
	for _, e := range events {
		got[e] = a.At(e.site, e.key, e.iter)
	}
	for i := len(events) - 1; i >= 0; i-- {
		e := events[i]
		if !reflect.DeepEqual(b.At(e.site, e.key, e.iter), got[e]) {
			t.Errorf("event %v resolved differently across call orders", e)
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	sc, _ := ScenarioByName("sensor-dropout")
	a := NewInjector(sc, 1)
	b := NewInjector(sc, 2)
	same := true
	for i := 0; i < 200; i++ {
		fa := a.At(SiteSMU, EventKey("k", i), 0)
		fb := b.At(SiteSMU, EventKey("k", i), 0)
		if (fa == nil) != (fb == nil) {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical dropout schedules over 200 events")
	}
}

func TestRatesApproximateProbability(t *testing.T) {
	sc, _ := ScenarioByName("sensor-dropout")
	in := NewInjector(sc, 7)
	hits := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if len(in.At(SiteSMU, EventKey("kernel", i), 0)) > 0 {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.15 || rate > 0.25 {
		t.Errorf("dropout rate %.3f, want ~0.20", rate)
	}
}

func TestDriftGrowsWithIterationAndSaturates(t *testing.T) {
	sc := Scenario{Name: "d", Rules: []Rule{{Site: SiteSMU, Kind: SensorDrift, Prob: 1, Magnitude: 0.02}}}
	in := NewInjector(sc, 1)
	f1 := in.At(SiteSMU, "k|0", 1)
	f10 := in.At(SiteSMU, "k|0", 10)
	f1000 := in.At(SiteSMU, "k|0", 1000)
	if len(f1) != 1 || len(f10) != 1 || len(f1000) != 1 {
		t.Fatalf("drift not always injected: %v %v %v", f1, f10, f1000)
	}
	if f1[0].Magnitude >= f10[0].Magnitude {
		t.Errorf("drift did not grow: %v -> %v", f1[0].Magnitude, f10[0].Magnitude)
	}
	if f1000[0].Magnitude != MaxDriftFrac {
		t.Errorf("drift %v not capped at %v", f1000[0].Magnitude, MaxDriftFrac)
	}
}

func TestActivePerSite(t *testing.T) {
	sc, _ := ScenarioByName("pstate-flaky")
	in := NewInjector(sc, 1)
	if !in.Active(SitePState) {
		t.Error("pstate-flaky inactive at SitePState")
	}
	if in.Active(SiteCounter) {
		t.Error("pstate-flaky active at SiteCounter")
	}
}

func TestConcurrentAtIsRaceFreeAndStable(t *testing.T) {
	sc, _ := ScenarioByName("blackout")
	in := NewInjector(sc, 3)
	want := in.At(SiteSMU, "k|5", 2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if !reflect.DeepEqual(in.At(SiteSMU, "k|5", 2), want) {
					t.Error("concurrent resolution diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestScenarioCatalog(t *testing.T) {
	names := ScenarioNames()
	if len(names) < 6 {
		t.Fatalf("only %d scenarios", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate scenario %q", n)
		}
		seen[n] = true
		sc, ok := ScenarioByName(n)
		if !ok || sc.Name != n || len(sc.Rules) == 0 || sc.Description == "" {
			t.Errorf("scenario %q malformed: %+v", n, sc)
		}
		for _, r := range sc.Rules {
			if r.Prob <= 0 || r.Prob > 1 {
				t.Errorf("scenario %q rule %v has probability %v", n, r.Kind, r.Prob)
			}
		}
	}
	if _, ok := ScenarioByName("no-such"); ok {
		t.Error("unknown scenario resolved")
	}
}

func TestParsePlan(t *testing.T) {
	in, err := ParsePlan("sensor-stuck:99")
	if err != nil {
		t.Fatal(err)
	}
	if in.Scenario().Name != "sensor-stuck" || in.Seed() != 99 {
		t.Errorf("parsed %v seed %d", in.Scenario().Name, in.Seed())
	}
	if in.String() != "sensor-stuck:99" {
		t.Errorf("round trip: %s", in)
	}
	in, err = ParsePlan("kernel-hang")
	if err != nil || in.Seed() != 1 {
		t.Errorf("default seed: %v %v", in, err)
	}
	if _, err := ParsePlan("nope:1"); err == nil {
		t.Error("unknown scenario parsed")
	}
	if _, err := ParsePlan("sensor-stuck:abc"); err == nil {
		t.Error("bad seed parsed")
	}
}

func TestEventKey(t *testing.T) {
	if EventKey("a/b", 7) != "a/b|7" {
		t.Errorf("EventKey = %q", EventKey("a/b", 7))
	}
}

func TestParsePlanEdgeCases(t *testing.T) {
	cases := []struct {
		plan string
		want string // error substring
	}{
		{"", "empty plan"},
		{":5", "names no scenario"},
		{":", "bad plan seed"},
		{"blackout:", "bad plan seed"},
		{"blackout:1:2", "unknown scenario"}, // the last colon splits; "blackout:1" is no scenario
		{"blackout:+7", ""},                  // ParseInt accepts an explicit sign
		{"blackout:-3", ""},                  // negative seeds are legal plan identities
		{"blackout: 7", "bad plan seed"},
	}
	for _, tc := range cases {
		in, err := ParsePlan(tc.plan)
		if tc.want == "" {
			if err != nil {
				t.Errorf("ParsePlan(%q): unexpected error %v", tc.plan, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("ParsePlan(%q) = %v, want error containing %q", tc.plan, in, tc.want)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParsePlan(%q) error %q does not mention %q", tc.plan, err, tc.want)
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	// Every built-in scenario must pass its own gate.
	for _, sc := range Scenarios() {
		if err := sc.Validate(); err != nil {
			t.Errorf("built-in scenario %q fails validation: %v", sc.Name, err)
		}
	}
	// An empty rule set is a legal (if pointless) scenario; "clean" is
	// just not in the catalog.
	if err := (Scenario{Name: "noop"}).Validate(); err != nil {
		t.Errorf("empty rule set rejected: %v", err)
	}

	bad := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"empty name", Scenario{}, "empty name"},
		{"zero probability", Scenario{Name: "s", Rules: []Rule{
			{Site: SiteSMU, Kind: SensorDropout, Prob: 0}}}, "outside (0, 1]"},
		{"negative probability", Scenario{Name: "s", Rules: []Rule{
			{Site: SiteSMU, Kind: SensorDropout, Prob: -0.1}}}, "outside (0, 1]"},
		{"probability above one", Scenario{Name: "s", Rules: []Rule{
			{Site: SiteSMU, Kind: SensorDropout, Prob: 1.5}}}, "outside (0, 1]"},
		{"NaN probability", Scenario{Name: "s", Rules: []Rule{
			{Site: SiteSMU, Kind: SensorDropout, Prob: math.NaN()}}}, "outside (0, 1]"},
		{"NaN magnitude", Scenario{Name: "s", Rules: []Rule{
			{Site: SiteSMU, Kind: SensorStuck, Prob: 0.5, Magnitude: math.NaN()}}}, "magnitude"},
		{"infinite magnitude", Scenario{Name: "s", Rules: []Rule{
			{Site: SiteSMU, Kind: SensorSpike, Prob: 0.5, Magnitude: math.Inf(1)}}}, "magnitude"},
		{"negative magnitude", Scenario{Name: "s", Rules: []Rule{
			{Site: SiteSMU, Kind: SensorStuck, Prob: 0.5, Magnitude: -2}}}, "magnitude"},
		{"duplicate site+kind", Scenario{Name: "s", Rules: []Rule{
			{Site: SitePState, Kind: PStateFail, Prob: 0.2},
			{Site: SitePState, Kind: PStateDelay, Prob: 0.2, Magnitude: 2},
			{Site: SitePState, Kind: PStateFail, Prob: 0.4}}}, "duplicates"},
	}
	for _, tc := range bad {
		err := tc.sc.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !errors.Is(err, ErrBadScenario) {
			t.Errorf("%s: error %v is not ErrBadScenario", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The same (kind, site) pair at different sites is not a duplicate.
	ok := Scenario{Name: "s", Rules: []Rule{
		{Site: SiteSMU, Kind: SensorDropout, Prob: 0.2},
		{Site: SiteCounter, Kind: SensorDropout, Prob: 0.2},
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("cross-site rule pair rejected: %v", err)
	}
}

// TestEventSeedHashesTheOriginalBytes pins the decision hash input to
// the formatted form every fault schedule has been derived from:
// scenario, "|seed|site|", key, "|iter|rule".
func TestEventSeedHashesTheOriginalBytes(t *testing.T) {
	cases := []struct {
		scenario   string
		seed       int64
		site       Site
		key        string
		iter, rule int
	}{
		{"blackout", 1, SiteSMU, "LULESH/Small/CalcQForElems|3", 0, 0},
		{"sensor-drift", -42, SiteKernel, "", 17, 3},
		{"", math.MinInt64, SiteNet, "fleet/node-7#r2", -1, 11},
		{"net-flaky", math.MaxInt64, Site(99), strings.Repeat("k", 300), math.MaxInt, 0},
	}
	for _, c := range cases {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%d|%d|%s|%d|%d", c.scenario, c.seed, int(c.site), c.key, c.iter, c.rule)
		if got, want := eventSeed(c.scenario, c.seed, c.site, c.key, c.iter, c.rule), int64(h.Sum64()); got != want {
			t.Errorf("eventSeed(%+v) = %#x, want %#x", c, got, want)
		}
	}
}

// TestAtDecidesLikeASeededStream checks each decision against the first
// Float64 of the math/rand stream seeded by the event hash.
func TestAtDecidesLikeASeededStream(t *testing.T) {
	sc := Scenario{Name: "half", Rules: []Rule{
		{Site: SiteSMU, Kind: SensorDropout, Prob: 0.5},
		{Site: SiteSMU, Kind: SensorSpike, Prob: 0.25, Magnitude: 3},
	}}
	in := NewInjector(sc, 9)
	for i := 0; i < 500; i++ {
		key := EventKey("k", i)
		var want []Fault
		for ri, r := range sc.Rules {
			if rand.New(rand.NewSource(eventSeed(sc.Name, 9, SiteSMU, key, i, ri))).Float64() < r.Prob {
				want = append(want, Fault{Kind: r.Kind, Magnitude: r.Magnitude})
			}
		}
		if got := in.At(SiteSMU, key, i); !reflect.DeepEqual(got, want) {
			t.Fatalf("event %d: At = %v, want %v", i, got, want)
		}
	}
}

func TestAtWithoutFaultDoesNotAllocate(t *testing.T) {
	sc, _ := ScenarioByName("blackout")
	in := NewInjector(sc, 1)
	key := "LULESH/Small/CalcQForElems|3"
	// Find an event where no rule fires; the schedule is fixed, so the
	// search is too.
	iter := 0
	for len(in.At(SiteSMU, key, iter)) > 0 {
		iter++
	}
	if n := testing.AllocsPerRun(100, func() { in.At(SiteSMU, key, iter) }); n != 0 {
		t.Errorf("At on a fault-free event allocates %v times", n)
	}
}
