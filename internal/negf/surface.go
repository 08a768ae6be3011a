// Package negf implements the non-equilibrium Green's function machinery
// for ballistic quantum transport through a two-terminal layered device:
// Sancho-Rubio surface Green's functions of the semi-infinite contacts,
// contact self-energies and broadening matrices, and the recursive Green's
// function (RGF) algorithm over the block-tridiagonal device Hamiltonian,
// yielding transmission (Caroli formula), layer-resolved density of states,
// and the contact-resolved spectral functions that feed the charge
// integration.
package negf

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/sparse"
)

// surfaceTol is the convergence threshold on the decimation's ε-updates.
const surfaceTol = 1e-12

// surfaceMaxIter bounds the decimation; each iteration doubles the
// effectively included lead depth, so 60 iterations cover 2^60 layers.
const surfaceMaxIter = 60

// ErrNoConvergence is returned when the surface Green's function decimation
// fails to converge — the energy lies exactly on a band edge with no
// imaginary part — or leaves the finite numbers on the way.
var ErrNoConvergence = errors.New("negf: surface Green's function did not converge (add imaginary broadening)")

// side names a contact: the left one is the half-chain extending to −x,
// the right one the half-chain extending to +x.
type side uint8

const (
	left side = iota
	right
)

var sideNames = [2]string{"left", "right"}

// sideSet is a bit set of sides.
type sideSet uint8

const bothSides = sideSet(1<<left | 1<<right)

func (ss sideSet) has(s side) bool { return ss&(1<<s) != 0 }

// finite reports whether a max-abs norm is a number: maxAbs propagates NaN
// and an overflowed element reads +Inf.
func finite(norm float64) bool { return !math.IsNaN(norm) && !math.IsInf(norm, 0) }

// decimate runs the Sancho-Rubio recursion of the periodic lead with
// principal-layer block h00 and coupling h01 to the next layer along +x
// (h10 its materialised adjoint) at complex energy z and returns the
// retarded surface Green's functions asked for: surf[right] of the
// half-chain extending to +x, surf[left] of the one extending to −x. Both
// come out of one recursion: with α = h01, β = h10 every iteration forms
// α·g·β and β·g·α for the bulk block anyway, and the two surface blocks
// differ only in which of the pair they accumulate. Nothing before the
// finish depends on want, so a side finished alone equals the same side
// finished in a pair bit for bit.
//
// Convergence is judged on what enters the result — both ε-updates below
// surfaceTol — before α and β are squared. Judging the squared couplings
// is unsafe: where β underflows to 0 while α overflows to +Inf, 0·Inf
// turns every block NaN, and a NaN fails no "<" test cleanly. A non-finite
// update or surface function is ErrNoConvergence at once.
func decimate(h00, h01, h10 *linalg.Matrix, z complex128, want sideSet) (surf [2]*linalg.Matrix, err error) {
	n := h00.Rows
	if imag(z) <= 0 {
		return surf, fmt.Errorf("negf: surface GF needs Im(z) > 0, got %g", imag(z))
	}
	// The loop runs entirely on workspace scratch: every iteration reuses
	// the same n×n buffers, so the ~tens of iterations per lead cost zero
	// allocations.
	ws := linalg.GetWorkspace()
	defer ws.Release()
	eps, epsS := ws.Get(n, n), [2]*linalg.Matrix{ws.Get(n, n), ws.Get(n, n)}
	for _, m := range []*linalg.Matrix{eps, epsS[left], epsS[right]} {
		m.CopyFrom(h00)
	}
	alpha := ws.Get(n, n)
	alpha.CopyFrom(h01)
	beta := ws.Get(n, n)
	beta.CopyFrom(h10)
	tmp, g := ws.Get(n, n), ws.Get(n, n)
	ag, bg := ws.Get(n, n), ws.Get(n, n)
	agb, bga := ws.Get(n, n), ws.Get(n, n)
	alphaNew, betaNew := ws.Get(n, n), ws.Get(n, n)

	for iter := 1; ; iter++ {
		linalg.ShiftedNegInto(tmp, eps, z)
		if err := linalg.InverseInto(g, tmp, ws); err != nil {
			return surf, fmt.Errorf("negf: decimation inversion failed: %w", err)
		}
		// α·g and β·g are shared by the ε-updates and the squarings.
		linalg.MulInto(ag, alpha, linalg.NoTrans, g, linalg.NoTrans)
		linalg.MulInto(bg, beta, linalg.NoTrans, g, linalg.NoTrans)
		linalg.MulInto(agb, ag, linalg.NoTrans, beta, linalg.NoTrans)
		linalg.MulInto(bga, bg, linalg.NoTrans, alpha, linalg.NoTrans)
		// A non-finite g shows in the updates it enters: no scan of its own.
		update := max(maxAbs(agb), maxAbs(bga))
		if !finite(update) {
			return surf, fmt.Errorf("%w: non-finite block at iteration %d", ErrNoConvergence, iter)
		}
		epsS[right].AddInPlace(agb)
		epsS[left].AddInPlace(bga)
		if update < surfaceTol {
			break
		}
		if iter == surfaceMaxIter {
			return surf, fmt.Errorf("%w: %d iterations", ErrNoConvergence, iter)
		}
		eps.AddInPlace(agb)
		eps.AddInPlace(bga)
		linalg.MulInto(alphaNew, ag, linalg.NoTrans, alpha, linalg.NoTrans)
		linalg.MulInto(betaNew, bg, linalg.NoTrans, beta, linalg.NoTrans)
		alpha, alphaNew = alphaNew, alpha
		beta, betaNew = betaNew, beta
	}
	for _, s := range [2]side{left, right} {
		if !want.has(s) {
			continue
		}
		// The result escapes the workspace, so it gets fresh storage.
		surf[s] = linalg.New(n, n)
		linalg.ShiftedNegInto(tmp, epsS[s], z)
		if err := linalg.InverseInto(surf[s], tmp, ws); err != nil {
			return surf, fmt.Errorf("negf: surface inversion failed: %w", err)
		}
		if !finite(maxAbs(surf[s])) {
			return surf, fmt.Errorf("%w: non-finite %s surface function", ErrNoConvergence, sideNames[s])
		}
	}
	return surf, nil
}

// Leads bundles the two semi-infinite contacts of a device. L01 and R01
// are oriented along +x: L01 couples a left-lead layer to the next layer
// toward the device; R01 couples a right-lead layer to the next layer away
// from the device. A contact's only identity is the block family its
// blocks match once the declared shift is removed (family.go): two Leads
// values share self-energies exactly when their blocks say they may.
type Leads struct {
	L00, L01 *linalg.Matrix
	R00, R01 *linalg.Matrix

	// ShiftL and ShiftR declare the rigid diagonal potential-energy shift
	// (eV) of each contact relative to its family's canonical band
	// structure — qV of the pinned flat-band contact. A shifted lead
	// satisfies Σ(z; V) = Σ(z − qV; 0), which is what lets one cache span
	// every bias point of an I-V surface.
	ShiftL, ShiftR float64

	// mu guards the memo of the last resolution — the registry that asked,
	// the blocks and shifts it was shown, the families they resolved to —
	// so a solver presenting the same value every energy pays a pointer
	// compare, not an O(n²) block compare.
	mu     sync.Mutex
	seenBy *registry
	seen   [2]leadSpec
	fams   [2]*blockFamily
	// own is the registry of the uncached path: this value's canon, never
	// shared with another Leads.
	own registry
}

// LeadsFromDevice derives flat-band contacts from the end layers of a
// uniform device Hamiltonian: each lead is the semi-infinite continuation
// of the corresponding end layer.
func LeadsFromDevice(h *sparse.BlockTridiag) (*Leads, error) {
	if h.Layers() < 2 {
		return nil, fmt.Errorf("negf: device needs at least 2 layers to define leads")
	}
	nl := h.Layers()
	return &Leads{
		L00: h.Diag[0].Clone(),
		L01: h.Upper[0].Clone(),
		R00: h.Diag[nl-1].Clone(),
		R01: h.Upper[nl-2].Clone(),
	}, nil
}

// SelfEnergies computes the retarded contact self-energies at complex
// energy z, projected onto the first and last device layers:
// Σ_L = L01†·g_L·L01 with g_L the left surface GF, and
// Σ_R = R01·g_R·R01† with g_R the right surface GF. It is the cache's miss
// path without the record store: the same canon rule, kernel and
// projection, so a fresh SelfEnergyCache returns the same bits.
func (l *Leads) SelfEnergies(z complex128) (sigL, sigR *linalg.Matrix, err error) {
	fams, err := l.own.resolve(l)
	if err != nil {
		return nil, nil, err
	}
	return l.selfEnergies(fams, z, (*blockFamily).selfEnergies)
}

// selfEnergies routes one request to its units of work: contacts that
// continue the same cell at the same canonical energy z − qV are one
// request for both sides, anything else is one request per side. get is
// the cache lookup or, uncached, the kernel itself.
func (l *Leads) selfEnergies(fams [2]*blockFamily, z complex128, get func(*blockFamily, complex128, sideSet) ([2]*linalg.Matrix, error)) (sigL, sigR *linalg.Matrix, err error) {
	zc := [2]complex128{z - complex(l.ShiftL, 0), z - complex(l.ShiftR, 0)}
	if fams[left] == fams[right] && zc[left] == zc[right] {
		sig, err := get(fams[left], zc[left], bothSides)
		if err != nil {
			return nil, nil, fmt.Errorf("negf: leads: %w", err)
		}
		return sig[left], sig[right], nil
	}
	var sig [2]*linalg.Matrix
	for _, s := range [2]side{left, right} {
		one, err := get(fams[s], zc[s], 1<<s)
		if err != nil {
			return nil, nil, fmt.Errorf("negf: %s lead: %w", sideNames[s], err)
		}
		sig[s] = one[s]
	}
	return sig[left], sig[right], nil
}

// Broadening returns Γ = i(Σ − Σ†), the contact broadening matrix.
func Broadening(sigma *linalg.Matrix) *linalg.Matrix {
	g := linalg.New(sigma.Rows, sigma.Cols)
	BroadeningInto(g, sigma)
	return g
}

// BroadeningInto writes Γ = i(Σ − Σ†) into dst elementwise, without
// materializing the adjoint: Γ_ij = i·(Σ_ij − conj(Σ_ji)). dst must be
// the same shape as the square sigma and must not alias it.
func BroadeningInto(dst, sigma *linalg.Matrix) {
	n := sigma.Rows
	if sigma.Cols != n {
		panic("negf: BroadeningInto requires a square matrix")
	}
	if dst == sigma {
		panic("negf: BroadeningInto output aliases its input")
	}
	if dst.Rows != n || dst.Cols != n {
		panic("negf: dimension mismatch in BroadeningInto")
	}
	for i := 0; i < n; i++ {
		dstRow := dst.Data[i*n : (i+1)*n]
		sigRow := sigma.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			d := sigRow[j] - cmplx.Conj(sigma.Data[j*n+i])
			dstRow[j] = complex(-imag(d), real(d)) // i·d
		}
	}
	perf.AddFlops(int64(n) * int64(n) * (perf.FlopsCAdd + perf.FlopsCMul))
}

// leadSpec is one contact viewed through the cache's eyes: the raw blocks
// as built (both couplings are oriented along +x), the declared shift, and
// which side they sit on.
type leadSpec struct {
	side  side
	shift float64
	h00   *linalg.Matrix // principal-layer block, as built (shift included)
	h01   *linalg.Matrix // coupling to the next layer along +x (L01 or R01)
}

func (l *Leads) spec(s side) leadSpec {
	if s == left {
		return leadSpec{side: left, shift: l.ShiftL, h00: l.L00, h01: l.L01}
	}
	return leadSpec{side: right, shift: l.ShiftR, h00: l.R00, h01: l.R01}
}
