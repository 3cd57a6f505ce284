package inject

import (
	"math"
	"testing"

	"repro/internal/la"
	"repro/internal/xrand"
)

func TestSingleBitChangesExactlyOneBit(t *testing.T) {
	r := xrand.New(1)
	inj := SingleBit{}
	for i := 0; i < 1000; i++ {
		old := r.Norm()
		nw := inj.Corrupt(r, old)
		diff := math.Float64bits(old) ^ math.Float64bits(nw)
		if popcount(diff) != 1 {
			t.Fatalf("flip count = %d (old=%x new=%x)", popcount(diff), math.Float64bits(old), math.Float64bits(nw))
		}
	}
}

func TestSingleBitCanProduceInf(t *testing.T) {
	// The paper's example: flipping the right exponent bit of 1.0 gives Inf
	// in half precision; in float64 flipping bit 62..52 reachable. Just
	// check Inf appears within many trials starting from 1.0.
	r := xrand.New(2)
	inj := SingleBit{}
	sawInf := false
	for i := 0; i < 10000 && !sawInf; i++ {
		if math.IsInf(inj.Corrupt(r, 1.0), 0) {
			sawInf = true
		}
	}
	if !sawInf {
		t.Fatal("single-bit flips of 1.0 never produced Inf")
	}
}

func TestMultiBitFlipCountRange(t *testing.T) {
	r := xrand.New(3)
	inj := MultiBit{}
	counts := map[int]int{}
	for i := 0; i < 5000; i++ {
		old := r.Norm()
		nw := inj.Corrupt(r, old)
		n := popcount(math.Float64bits(old) ^ math.Float64bits(nw))
		if n < 2 || n > 16 {
			t.Fatalf("flip count %d outside [2,16]", n)
		}
		counts[n]++
	}
	for n := 2; n <= 16; n++ {
		if counts[n] == 0 {
			t.Fatalf("flip count %d never occurred", n)
		}
	}
}

// TestMultiBitDefaultMax checks that the multi-bit injector the campaigns
// get by name flips between 2 and 16 bits.
func TestMultiBitDefaultMax(t *testing.T) {
	r := xrand.New(4)
	inj, err := ByName("multibit")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		old := r.Norm()
		nw := inj.Corrupt(r, old)
		n := popcount(math.Float64bits(old) ^ math.Float64bits(nw))
		if n < 2 || n > 16 {
			t.Fatalf("default flip count %d outside [2,16]", n)
		}
	}
}

func TestScaledDistribution(t *testing.T) {
	r := xrand.New(5)
	inj := Scaled{}
	const n = 100000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := inj.Corrupt(r, 2.0) / 2.0
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.05 {
		t.Fatalf("scaled factor mean=%g var=%g, want ~N(0,1)", mean, variance)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"singlebit", "multibit", "scaled"} {
		inj, err := ByName(name)
		if err != nil || inj.Name() != name {
			t.Fatalf("ByName(%q): %v %v", name, inj, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestAllOrder(t *testing.T) {
	all := All()
	if len(all) != 3 || all[0].Name() != "multibit" || all[1].Name() != "singlebit" || all[2].Name() != "scaled" {
		t.Fatalf("All() = %v", all)
	}
}

func TestPlanInjectionRate(t *testing.T) {
	p := NewPlan(xrand.New(7), Scaled{})
	k := la.NewVec(10)
	k.Fill(1)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		hits += p.Hook(0, 0, k)
	}
	rate := float64(hits) / n
	if rate < 0.007 || rate > 0.013 {
		t.Fatalf("injection rate %g, want ~0.01", rate)
	}
	if p.Count != int64(hits) {
		t.Fatalf("Count = %d, hits = %d", p.Count, hits)
	}
}

func TestPlanDisabled(t *testing.T) {
	p := NewPlan(xrand.New(8), Scaled{})
	p.Prob = 1
	k := la.Vec{1}
	restore := p.Pause()
	if p.Hook(0, 0, k) != 0 || k[0] != 1 {
		t.Fatal("paused plan injected")
	}
	restore()
	if p.Hook(0, 0, k) != 1 {
		t.Fatal("restored plan did not inject")
	}
}

func TestPlanHookCorruptsOneComponent(t *testing.T) {
	p := NewPlan(xrand.New(9), SingleBit{})
	p.Prob = 1
	want := la.Vec{3.5, -2}
	k := want.Clone()
	if p.Hook(4, 1.25, k) != 1 || p.Count != 1 {
		t.Fatalf("hook at prob 1 did not count one corruption (Count = %d)", p.Count)
	}
	flips := 0
	for i := range k {
		flips += popcount(math.Float64bits(k[i]) ^ math.Float64bits(want[i]))
	}
	if flips != 1 {
		t.Fatalf("single-bit hook flipped %d bits of %v, got %v", flips, want, k)
	}
}

func TestPlanEmptyVector(t *testing.T) {
	p := NewPlan(xrand.New(10), Scaled{})
	p.Prob = 1
	if p.Hook(0, 0, la.Vec{}) != 0 {
		t.Fatal("injected into empty vector")
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestStateHook(t *testing.T) {
	p := NewPlan(xrand.New(21), Scaled{})
	p.Prob = 1
	x := la.Vec{1, 2, 3}
	if p.StateHook(0.5, x) != 1 || p.Count != 1 {
		t.Fatal("state hook did not inject at prob 1")
	}
	changed := 0
	for i, v := range x {
		if v != float64(i+1) {
			changed++
		}
	}
	if changed != 1 {
		t.Fatalf("state hook changed %d components of x, want 1: %v", changed, x)
	}
	restore := p.Pause()
	if p.StateHook(0.5, x) != 0 {
		t.Fatal("paused state hook injected")
	}
	restore()
}

func TestFieldSelectiveHook(t *testing.T) {
	p := NewPlan(xrand.New(31), Scaled{})
	p.Prob = 1
	hook := p.HookFor(FieldSelective{Lo: 4, Hi: 8, Inner: Scaled{}})
	k := la.NewVec(12)
	k.Fill(1)
	for i := 0; i < 50; i++ {
		hook(0, 0, k)
	}
	for i, v := range k {
		if (i < 4 || i >= 8) && v != 1 {
			t.Fatalf("injection outside field: index %d", i)
		}
	}
	if p.Count != 50 {
		t.Fatalf("Count = %d, want 50", p.Count)
	}
	if got := (FieldSelective{Lo: 4, Hi: 8, Inner: Scaled{}}).Name(); got != "scaled[4:8]" {
		t.Fatalf("Name = %q", got)
	}
}

func TestFieldSelectiveDegenerateRange(t *testing.T) {
	p := NewPlan(xrand.New(32), Scaled{})
	p.Prob = 1
	hook := p.HookFor(FieldSelective{Lo: 10, Hi: 10, Inner: Scaled{}})
	if hook(0, 0, la.NewVec(5)) != 0 {
		t.Fatal("degenerate range injected")
	}
}
