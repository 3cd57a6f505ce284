package control

import "testing"

// bdfPolicy returns a Policy with the BDF strategy's order range, the
// configuration the original in-detector tests exercised.
func bdfPolicy() *Policy {
	p := &Policy{}
	p.Init(1, 3)
	return p
}

func TestOrderAdaptationRaisesOrderUnderFalsePositives(t *testing.T) {
	p := bdfPolicy()
	p.SetOrder(1)
	// Simulate Algorithm 1's bookkeeping: a window with frequent FPs.
	p.c, p.fpWin = 10, 5 // window FPR = 0.5 > Γ
	if !p.updateOrder() {
		t.Fatal("high FPR did not change the order")
	}
	if p.Order() != 2 {
		t.Fatalf("order = %d, want 2 after high FPR", p.Order())
	}
	p.c, p.fpWin = 10, 5
	p.updateOrder()
	if p.Order() != 3 {
		t.Fatalf("order capped wrong: %d", p.Order())
	}
	p.c, p.fpWin = 10, 5
	if p.updateOrder() { // at cap, high FPR: stays 3
		t.Fatal("updateOrder reported a change at the order cap")
	}
	if p.Order() != 3 {
		t.Fatalf("order exceeded qMax: %d", p.Order())
	}
}

func TestOrderAdaptationLowersOrderWhenQuiet(t *testing.T) {
	p := bdfPolicy()
	p.SetOrder(3)
	p.c, p.fpWin = 100, 1 // window FPR = 0.01 < γ
	p.updateOrder()
	if p.Order() != 2 {
		t.Fatalf("order = %d, want 2 after low FPR", p.Order())
	}
	p.c, p.fpWin = 100, 7 // FPR = 0.07 in (γ, Γ): hysteresis, no change
	p.updateOrder()
	if p.Order() != 2 {
		t.Fatalf("order = %d, want 2 in hysteresis band", p.Order())
	}
}

func TestNoAdaptDisablesOrderChanges(t *testing.T) {
	p := bdfPolicy()
	p.NoAdapt = true
	p.SetOrder(2)
	p.c, p.fpWin = 10, 9
	if p.updateOrder() {
		t.Fatal("NoAdapt violated: updateOrder reported a change")
	}
	if p.Order() != 2 {
		t.Fatalf("NoAdapt violated: order=%d", p.Order())
	}
}

func TestSetOrderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bdfPolicy().SetOrder(5)
}

func TestRescueRequiresArmedLatchAndExactError(t *testing.T) {
	p := bdfPolicy()
	if rescued, _ := p.Rescue(0.5, true); rescued {
		t.Fatal("rescue fired with an unarmed latch")
	}
	p.NoteReject(0.5)
	if rescued, _ := p.Rescue(0.5, false); rescued {
		t.Fatal("rescue fired without a recomputation")
	}
	if rescued, _ := p.Rescue(0.5000001, true); rescued {
		t.Fatal("rescue fired on a non-identical scaled error")
	}
	if rescued, _ := p.Rescue(0.5, true); !rescued {
		t.Fatal("bit-identical recomputation not rescued")
	}
	if rescued, _ := p.Rescue(0.5, true); rescued {
		t.Fatal("rescue latch not disarmed after firing")
	}
}
