package crowd

import (
	"errors"
	"math/rand"
	"testing"
)

var errMarketDown = errors.New("market down")

// brittleOracle delivers valid preferences until its supply runs out,
// then reports a permanent failure — the minimal FallibleBatchOracle for
// exercising the engine's degradation path.
type brittleOracle struct {
	n      int
	supply int
}

func (b *brittleOracle) NumItems() int { return b.n }

func (b *brittleOracle) Preference(rng *rand.Rand, i, j int) float64 {
	var one [1]float64
	if filled, _ := b.PreferencesPartial(rng, i, j, one[:]); filled == 1 {
		return one[0]
	}
	return 0
}

func (b *brittleOracle) Grade(rng *rand.Rand, i int) float64 { return float64(i) }

func (b *brittleOracle) PreferencesPartial(_ *rand.Rand, i, j int, dst []float64) (int, error) {
	fill := len(dst)
	if fill > b.supply {
		fill = b.supply
	}
	b.supply -= fill
	for t := 0; t < fill; t++ {
		dst[t] = 0.25
	}
	if fill < len(dst) {
		return fill, errMarketDown
	}
	return fill, nil
}

func TestEngineRefundsUndeliveredAnswers(t *testing.T) {
	e := NewEngine(&brittleOracle{n: 5, supply: 20}, rand.New(rand.NewSource(1)))
	enableLog(e)
	v := e.Draw(0, 1, 50)
	if v.N != 20 {
		t.Fatalf("bag has %d samples, want the 20 delivered", v.N)
	}
	if e.TMC() != 20 {
		t.Errorf("TMC = %d, want 20 — undelivered slots must be refunded", e.TMC())
	}
	if got := len(logOf(e)); got != 20 {
		t.Errorf("audit log has %d records, want 20: every charged task must be logged", got)
	}
	if err := e.Err(); !errors.Is(err, errMarketDown) || !errors.Is(err, ErrPlatformFailure) {
		t.Errorf("Err = %v, want wrap of both ErrPlatformFailure and the cause", err)
	}
}

func TestEngineLatchDeclinesAllPurchases(t *testing.T) {
	e := NewEngine(&brittleOracle{n: 5, supply: 10}, rand.New(rand.NewSource(2)))
	e.Draw(0, 1, 30) // fails after 10
	tmc := e.TMC()

	if v := e.Draw(2, 3, 30); v.N != 0 {
		t.Errorf("degraded engine still granted %d samples", v.N)
	}
	if _, ok := e.DrawOne(1, 4); ok {
		t.Error("degraded engine granted a DrawOne")
	}
	if _, ok := e.Grade(2); ok {
		t.Error("degraded engine granted a Grade")
	}
	if e.TMC() != tmc {
		t.Errorf("degraded engine charged money: TMC %d -> %d", tmc, e.TMC())
	}
	// The latched view still serves the evidence already purchased.
	if v := e.View(0, 1); v.N != 10 {
		t.Errorf("purchased evidence lost: view has %d samples", v.N)
	}
}

func TestEngineFirstFailureWins(t *testing.T) {
	e := NewEngine(&brittleOracle{n: 5, supply: 0}, rand.New(rand.NewSource(3)))
	e.Draw(0, 1, 5)
	first := e.Err()
	e.failed.Store(false) // simulate a racing purchase slipping past the latch
	e.Draw(2, 3, 5)
	if e.Err() == nil || e.Err().Error() != first.Error() {
		t.Errorf("first failure overwritten: %v -> %v", first, e.Err())
	}
}

func TestEngineDrawOneRefundsOnEmptyDelivery(t *testing.T) {
	e := NewEngine(&brittleOracle{n: 5, supply: 0}, rand.New(rand.NewSource(4)))
	if _, ok := e.DrawOne(0, 1); ok {
		t.Fatal("DrawOne reported success with nothing delivered")
	}
	if e.TMC() != 0 {
		t.Errorf("TMC = %d after an undelivered DrawOne, want 0", e.TMC())
	}
	if e.Err() == nil {
		t.Error("failure not latched")
	}
}

func TestEngineCapAndFailureCompose(t *testing.T) {
	// A spending cap reached before the failure point: the cap truncates
	// first, the oracle never fails, the engine stays healthy.
	e := NewEngine(&brittleOracle{n: 5, supply: 10}, rand.New(rand.NewSource(6)))
	e.SetSpendingCap(8)
	v := e.Draw(0, 1, 20)
	if v.N != 8 {
		t.Fatalf("cap not honored: %d samples", v.N)
	}
	if e.Err() != nil {
		t.Errorf("cap truncation mis-reported as failure: %v", e.Err())
	}
}
