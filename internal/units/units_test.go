package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFermiLimits(t *testing.T) {
	kt := KT(300)
	if f := Fermi(-10, 0, kt); math.Abs(f-1) > 1e-12 {
		t.Fatalf("deep-below occupation %g, want 1", f)
	}
	if f := Fermi(10, 0, kt); f > 1e-12 {
		t.Fatalf("far-above occupation %g, want ~0", f)
	}
	if f := Fermi(0, 0, kt); math.Abs(f-0.5) > 1e-12 {
		t.Fatalf("at-mu occupation %g, want 0.5", f)
	}
}

func TestFermiSymmetry(t *testing.T) {
	// f(mu+x) + f(mu−x) = 1.
	f := func(x float64, tRaw uint8) bool {
		x = math.Mod(x, 5)
		kt := KT(float64(tRaw)*2 + 10)
		s := Fermi(0.3+x, 0.3, kt) + Fermi(0.3-x, 0.3, kt)
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFermiMonotone(t *testing.T) {
	kt := KT(300)
	prev := 2.0
	for e := -1.0; e <= 1.0; e += 0.01 {
		f := Fermi(e, 0, kt)
		// Non-increasing everywhere (the tails saturate in floating
		// point), strictly decreasing within a few kT of mu.
		if f > prev || (math.Abs(e) < 5*kt && f == prev) {
			t.Fatalf("Fermi function not decreasing at %g", e)
		}
		prev = f
	}
}

func TestLogisticDerivative(t *testing.T) {
	kt := KT(300)
	// Peak value at E = mu is 1/(4kT).
	if d := LogisticDerivative(0.2, 0.2, kt); math.Abs(d-1/(4*kt)) > 1e-9 {
		t.Fatalf("thermal kernel peak %g, want %g", d, 1/(4*kt))
	}
	// Integral over energy is 1 (it is −∂f/∂E of a unit step).
	var integral float64
	de := 1e-4
	for e := -0.5; e <= 0.5; e += de {
		integral += LogisticDerivative(e, 0, kt) * de
	}
	if math.Abs(integral-1) > 1e-3 {
		t.Fatalf("thermal kernel integrates to %g", integral)
	}
}

func TestConstantsConsistency(t *testing.T) {
	// e/h in A/eV: CurrentQuantum = e²/h / e... numerically e/h·e:
	// G0 = 2e²/h → CurrentQuantum should equal G0/2 in A/V units when
	// multiplied by 1V worth of energy window.
	if math.Abs(CurrentQuantum-ConductanceQuantum/2) > 1e-9 {
		t.Fatalf("CurrentQuantum %g inconsistent with G0/2 = %g",
			CurrentQuantum, ConductanceQuantum/2)
	}
	if math.Abs(KT(300)-0.025852) > 1e-4 {
		t.Fatalf("kT(300K) = %g", KT(300))
	}
}
