package wear

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// UFromUrSigma evaluates Eq. (3), UFromUr(ur) + sigma: the forward
// reference the inverse F is checked against.
func UFromUrSigma(ur, sigma float64) float64 { return UFromUr(ur) + sigma }

func TestUFromUrLimits(t *testing.T) {
	if got := UFromUr(0); got != 0 {
		t.Fatalf("UFromUr(0) = %v", got)
	}
	if got := UFromUr(1); got != 1 {
		t.Fatalf("UFromUr(1) = %v", got)
	}
	if got := UFromUr(-0.5); got != 0 {
		t.Fatalf("UFromUr(<0) = %v", got)
	}
	if got := UFromUr(2); got != 1 {
		t.Fatalf("UFromUr(>1) = %v", got)
	}
}

func TestUFromUrKnownValues(t *testing.T) {
	// u(0.5) = (0.5-1)/ln(0.5) = 0.5/ln2 ≈ 0.7213.
	if got := UFromUr(0.5); math.Abs(got-0.5/math.Ln2) > 1e-12 {
		t.Fatalf("UFromUr(0.5) = %v", got)
	}
	// Always above the diagonal: u(ur) > ur on (0,1).
	for _, ur := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		if UFromUr(ur) <= ur {
			t.Fatalf("UFromUr(%v) = %v should exceed ur", ur, UFromUr(ur))
		}
	}
}

func TestUFromUrMonotone(t *testing.T) {
	prev := 0.0
	for ur := 0.001; ur < 1; ur += 0.001 {
		u := UFromUr(ur)
		if u <= prev {
			t.Fatalf("UFromUr not strictly increasing at %v", ur)
		}
		prev = u
	}
}

func TestUFromUrSigma(t *testing.T) {
	if got := UFromUrSigma(0.5, 0.28); math.Abs(got-(0.5/math.Ln2+0.28)) > 1e-12 {
		t.Fatalf("UFromUrSigma = %v", got)
	}
}

func TestFInvertsEquationThree(t *testing.T) {
	for _, sigma := range []float64{0, 0.28} {
		for _, ur := range []float64{0.05, 0.2, 0.5, 0.8, 0.95} {
			u := UFromUrSigma(ur, sigma)
			if u >= 1+sigma {
				continue
			}
			got := F(u, sigma)
			if math.Abs(got-ur) > 1e-9 {
				t.Fatalf("F(U(%v)+%v) = %v", ur, sigma, got)
			}
		}
	}
}

func TestFClamps(t *testing.T) {
	// Below sigma: the predicted valid ratio is 0.
	if got := F(0.2, 0.28); got != 0 {
		t.Fatalf("F(u<sigma) = %v", got)
	}
	if got := F(0, 0); got != 0 {
		t.Fatalf("F(0,0) = %v", got)
	}
	// Saturation: u−sigma >= 1 clamps near 1.
	if got := F(1.5, 0.28); got < 0.999 {
		t.Fatalf("F(saturated) = %v", got)
	}
}

func TestFMonotoneInU(t *testing.T) {
	prev := -1.0
	for u := 0.0; u <= 1.2; u += 0.01 {
		ur := F(u, 0.28)
		if ur < prev-1e-12 {
			t.Fatalf("F not monotone at u=%v", u)
		}
		prev = ur
	}
}

// Property: F is a right inverse of Eq.(3) wherever it isn't clamped.
func TestPropertyFInverse(t *testing.T) {
	f := func(urRaw, sigmaRaw uint16) bool {
		ur := 0.001 + 0.998*float64(urRaw)/65535
		sigma := 0.5 * float64(sigmaRaw) / 65535
		u := UFromUrSigma(ur, sigma)
		if u <= sigma || u >= 1+sigma {
			return true
		}
		return math.Abs(F(u, sigma)-ur) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEraseCountFromUr(t *testing.T) {
	m := NewModel(32, 0.28)
	// 3200 writes at ur=0.5: 3200/(32*0.5) = 200 erases.
	if got := m.EraseCountFromUr(3200, 0.5); math.Abs(got-200) > 1e-9 {
		t.Fatalf("EraseCountFromUr = %v", got)
	}
	if got := m.EraseCountFromUr(100, 1); !math.IsInf(got, 1) {
		t.Fatalf("ur=1 should be +Inf, got %v", got)
	}
	if got := m.EraseCountFromUr(3200, -0.1); math.Abs(got-100) > 1e-9 {
		t.Fatalf("negative ur should clamp to 0: %v", got)
	}
}

func TestEraseCountNegativeWcPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Wc must panic")
		}
	}()
	NewModel(32, 0).EraseCountFromUr(-1, 0.5)
}

func TestNewModelValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive Np must panic")
		}
	}()
	NewModel(0, 0.28)
}

func TestEraseCountGrowsWithUtilization(t *testing.T) {
	m := NewModel(32, 0.28)
	prev := 0.0
	for _, u := range []float64{0.3, 0.5, 0.6, 0.7, 0.8, 0.9} {
		ec := m.EraseCount(100000, u)
		if ec < prev {
			t.Fatalf("erase count should grow with utilization: u=%v ec=%v prev=%v", u, ec, prev)
		}
		prev = ec
	}
}

func TestEraseCountLinearInWrites(t *testing.T) {
	m := NewModel(32, 0.28)
	a := m.EraseCount(1000, 0.6)
	b := m.EraseCount(2000, 0.6)
	if math.Abs(b-2*a) > 1e-9 {
		t.Fatalf("Eq.(4) must be linear in Wc: %v vs %v", a, b)
	}
}

// The paper's CDF cutoff rationale: below 50% utilization (σ=0.28),
// utilization changes barely affect the erase count (Fig. 3).
func TestUtilizationBelowHalfBarelyMatters(t *testing.T) {
	m := NewModel(32, DefaultSigma)
	low := m.EraseCount(100000, 0.30)
	mid := m.EraseCount(100000, 0.48)
	hi := m.EraseCount(100000, 0.85)
	if (mid-low)/low > 0.15 {
		t.Fatalf("below 50%% utilization erase count moved %v%%", 100*(mid-low)/low)
	}
	if hi < 1.3*mid {
		t.Fatalf("above 50%% utilization should matter a lot: mid=%v hi=%v", mid, hi)
	}
}

func TestEraseCountWithUrHoistsInversion(t *testing.T) {
	m := NewModel(32, 0.28)
	u := 0.65
	ur := m.Ur(u)
	if math.Abs(m.EraseCountWithUr(5000, ur)-m.EraseCount(5000, u)) > 1e-9 {
		t.Fatal("EraseCountWithUr must agree with EraseCount")
	}
}

// Property: the model is scale-free in (Wc, Np): doubling Np halves Ec.
func TestPropertyNpScaling(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		u := rnd.Float64()
		wc := rnd.Float64() * 1e6
		a := NewModel(16, 0.28).EraseCount(wc, u)
		b := NewModel(32, 0.28).EraseCount(wc, u)
		if a == 0 && b == 0 {
			continue
		}
		if math.Abs(a-2*b)/a > 1e-9 {
			t.Fatalf("Np scaling violated: a=%v b=%v (u=%v)", a, b, u)
		}
	}
}
