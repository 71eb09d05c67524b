package energy

import (
	"testing"
	"testing/quick"
)

func testLedger() *Ledger {
	return NewLedger(map[Component]float64{
		L1Read:    20.0,
		DTCConv:   37.5,
		TDCConv:   145.0,
		XSubBufOp: 0.62,
	})
}

func TestAddAndEnergy(t *testing.T) {
	l := testLedger()
	l.Add(L1Read, ClassInput, 100)
	l.Add(L1Read, ClassPsum, 50)
	if got := l.Count(L1Read); got != 150 {
		t.Errorf("Count = %v, want 150", got)
	}
	if got := l.Energy(L1Read); got != 150*20 {
		t.Errorf("Energy = %v, want 3000", got)
	}
	if got := l.EnergyClass(L1Read, ClassInput); got != 2000 {
		t.Errorf("EnergyClass(input) = %v, want 2000", got)
	}
}

func TestTotalAndByClass(t *testing.T) {
	l := testLedger()
	l.Add(L1Read, ClassInput, 10)
	l.Add(DTCConv, ClassInput, 10)
	l.Add(TDCConv, ClassPsum, 4)
	wantTotal := 10*20.0 + 10*37.5 + 4*145.0
	if got := l.Total(); got != wantTotal {
		t.Errorf("Total = %v, want %v", got, wantTotal)
	}
	if got := l.ByClass(ClassInput); got != 10*20.0+10*37.5 {
		t.Errorf("ByClass(input) = %v", got)
	}
}

func TestByLevelAndMovement(t *testing.T) {
	l := testLedger()
	l.Add(L1Read, ClassInput, 10)    // L1
	l.Add(XSubBufOp, ClassInput, 30) // ALB
	l.Add(DTCConv, ClassInput, 10)   // interface: LevelNone
	if got := l.ByLevel(LevelL1); got != 200 {
		t.Errorf("ByLevel(L1) = %v, want 200", got)
	}
	if got := l.ByLevel(LevelALB); got != 30*0.62 {
		t.Errorf("ByLevel(ALB) = %v", got)
	}
	// Movement excludes the DTC conversions.
	if got := l.MovementByClass(ClassInput); got != 200+30*0.62 {
		t.Errorf("MovementByClass = %v", got)
	}
}

func TestInterfaceEnergy(t *testing.T) {
	l := testLedger()
	l.Add(DTCConv, ClassInput, 2)
	l.Add(TDCConv, ClassPsum, 2)
	l.Add(L1Read, ClassInput, 100)
	if got := l.InterfaceEnergy(); got != 2*37.5+2*145 {
		t.Errorf("InterfaceEnergy = %v", got)
	}
}

func TestLevelOf(t *testing.T) {
	cases := map[Component]Level{
		XSubBufOp:   LevelALB,
		PSubBufOp:   LevelALB,
		IAdderOp:    LevelALB,
		L1Read:      LevelL1,
		EDRAMRead:   LevelL1,
		L2Write:     LevelL2,
		BusOp:       LevelL3,
		HyperLinkOp: LevelL3,
		DTCConv:     LevelNone,
		CrossbarOp:  LevelNone,
	}
	for c, want := range cases {
		if got := LevelOf(c); got != want {
			t.Errorf("LevelOf(%v) = %v, want %v", c, got, want)
		}
	}
}

func TestIsInterface(t *testing.T) {
	for _, c := range []Component{DTCConv, TDCConv, DACConv, ADCConv} {
		if !IsInterface(c) {
			t.Errorf("%v not flagged as interface", c)
		}
	}
	if IsInterface(L1Read) {
		t.Errorf("L1Read flagged as interface")
	}
}

func TestStringCoverage(t *testing.T) {
	for _, c := range Components() {
		if c.String() == "" {
			t.Errorf("component %d has empty name", int(c))
		}
	}
	for _, cl := range Classes() {
		if cl.String() == "" {
			t.Errorf("class %d has empty name", int(cl))
		}
	}
	if Component(99).String() == "" || Class(99).String() == "" || Level(99).String() == "" {
		t.Errorf("out-of-range String() must not be empty")
	}
}

// Property: Total always equals the sum over classes and the sum over levels
// plus non-memory components.
func TestTotalConsistencyProperty(t *testing.T) {
	f := func(ops [8]uint8) bool {
		l := testLedger()
		comps := []Component{L1Read, DTCConv, TDCConv, XSubBufOp}
		classes := []Class{ClassInput, ClassPsum}
		for i, n := range ops {
			l.Add(comps[i%len(comps)], classes[i%len(classes)], float64(n))
		}
		var byClass float64
		for _, cl := range Classes() {
			byClass += l.ByClass(cl)
		}
		diff := l.Total() - byClass
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
