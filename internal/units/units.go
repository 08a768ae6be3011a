// Package units centralizes the physical constants and statistical
// functions shared by the electrostatics and transport packages. The
// simulator works in (eV, nm, e) units: energies in electron-volts,
// lengths in nanometers, charge counted in elementary charges.
package units

import "math"

const (
	// Eps0 is the vacuum permittivity in e/(V·nm): ε₀ = 8.8541878128e-12
	// F/m = 0.055263494 e/(V·nm).
	Eps0 = 0.055263494

	// KBoltzmann is Boltzmann's constant in eV/K.
	KBoltzmann = 8.617333262e-5

	// QElectron is the elementary charge in coulomb, used only when
	// converting currents to amperes.
	QElectron = 1.602176634e-19

	// ConductanceQuantum G₀ = 2e²/h in siemens (spin-degenerate).
	ConductanceQuantum = 7.748091729e-5

	// CurrentQuantum e/h in A/eV: the Landauer prefactor per spin for
	// energies in eV, I = (e/h)∫T(E)(f_L−f_R)dE.
	CurrentQuantum = 2.4179892e14 * QElectron // e/h ≈ 3.874e-5 A/eV
)

// KT returns k_B·T in eV.
func KT(temperature float64) float64 { return KBoltzmann * temperature }

// Fermi returns the Fermi-Dirac occupation 1/(1+exp((e−mu)/kT)).
// kT must be positive; the zero-temperature limit is handled by callers
// passing a small kT.
func Fermi(e, mu, kT float64) float64 {
	x := (e - mu) / kT
	// Guard the exponential for numerical robustness far from mu.
	switch {
	case x > 40:
		return math.Exp(-x)
	case x < -40:
		return 1
	default:
		return 1 / (1 + math.Exp(x))
	}
}

// LogisticDerivative returns −∂f/∂E of the Fermi function, the thermal
// broadening kernel (1/eV).
func LogisticDerivative(e, mu, kT float64) float64 {
	x := (e - mu) / (2 * kT)
	if x > 40 || x < -40 {
		return 0
	}
	c := math.Cosh(x)
	return 1 / (4 * kT * c * c)
}
