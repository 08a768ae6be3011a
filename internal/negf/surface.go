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

// decimate runs the Sancho-Rubio recursion of the family's periodic lead at
// complex energy z in the coupling's support space and returns, as ws
// scratch, the blocks of the retarded surface Green's functions the
// self-energies read: surf[right] = g_R[C,C] of the half-chain extending to
// +x, surf[left] = g_L[R,R] of the one extending to −x.
//
// The couplings keep their shape under the recursion — α_i is nonzero only
// on R×C, β_i on C×R — so every product needs only blocks of g[S,S], every
// ε-update lives on S×S (the right surface's on R×R, the left's on C×C),
// and g[S,S] = (M(z) − Δ)⁻¹ with M the family's sparse.Layer at z and Δ the
// accumulated update: an iteration is one s×s inverse plus r-sized
// products. An energy the layer's guard keeps whole runs the same loop with
// s = n, S first; R and C sit at the same positions either way.
//
// An energy the eliminated layer cannot finish reruns on the whole layer.
// Within a few η of a level of the full h00 (not of the interior, which the
// guard sees) the first inverse is ~1/η large, every layout's rounding is
// amplified by as much, and whether α and β — transposes of each other for
// a real lead — stay balanced until both decay is a matter of that
// rounding: at AGNR-7's E = 1.3976219674 eV, 8.8e-7 eV from such a level,
// the eliminated layer's α grows by squaring until it overflows at
// iteration 31, and the whole layer's converges at iteration 25.
//
// Both surfaces come out of one recursion: every iteration forms α·g·β and
// β·g·α for the bulk block anyway, and the two surfaces differ only in which
// of the pair they accumulate. Nothing before the finish depends on want, so
// a side finished alone equals the same side finished in a pair bit for bit.
//
// Convergence is judged on what enters the result — both ε-updates below
// surfaceTol — before α and β are squared. Judging the squared couplings
// is unsafe: where β underflows to 0 while α overflows to +Inf, 0·Inf
// turns every block NaN, and a NaN fails no "<" test cleanly. A non-finite
// update or surface function is ErrNoConvergence at once.
func (b *blockFamily) decimate(z complex128, want sideSet, ws *linalg.Workspace) (surf [2]*linalg.Matrix, err error) {
	if imag(z) <= 0 {
		return surf, fmt.Errorf("negf: surface GF needs Im(z) > 0, got %g", imag(z))
	}
	set := sparse.SoloSet(ws)
	layer := b.layer.At(z, ws)
	blocks, _, errs := b.recursion(&set, sparse.Block{M: layer}, want, 1)
	if errs[0] != nil && layer.Rows < b.h00.Rows {
		blocks, _, errs = b.recursion(&set, sparse.Block{M: b.layer.Whole().At(z, ws)}, want, 1)
	}
	return [2]*linalg.Matrix{blocks[left].M, blocks[right].M}, errs[0]
}

// recursion runs decimate's loop on the effective layer M(z), with R and C
// at b.posR and b.posC of its rows, for every lane of live: one energy on
// the solo kernels, or up to linalg.Lanes in lockstep (sparse.Set). Each lane
// retires at its own iteration — its updates then stop — or fails with its
// own error, after which nothing of it is read; either way its couplings
// are zeroed, so its storage stays tame while the others run on. The
// finish runs for the retired lanes together. It returns each lane's
// iteration count and error.
func (b *blockFamily) recursion(set *sparse.Set, layer sparse.Block, want sideSet, live linalg.LaneMask) (surf [2]sparse.Block, iters [linalg.Lanes]int, errs [linalg.Lanes]error) {
	s, r, c := layer.Rows(), len(b.rows), len(b.cols)
	bulk := set.Get(s, s) // z − ε on S
	set.Copy(bulk, layer)
	// The surfaces' own sums of −α·g·β (right, on R×R) and −β·g·α (left, on
	// C×C), and where each lands in S.
	upd := [2]sparse.Block{left: set.Zeroed(c, c), right: set.Zeroed(r, r)}
	pos := [2][]int{left: b.posC, right: b.posR}
	alpha, beta, alphaNew, betaNew := set.Get(r, c), set.Get(c, r), set.Get(r, c), set.Get(c, r)
	set.Load(alpha, &b.a)
	set.Load(beta, &b.ad)
	g := set.Get(s, s)
	gCC, gCR, gRR, gRC := set.Get(c, c), set.Get(c, r), set.Get(r, r), set.Get(r, c)
	agC, agR, bgR, bgC := set.Get(r, c), set.Get(r, r), set.Get(c, r), set.Get(c, c)
	agb, bga := set.Get(r, r), set.Get(c, c) // −α·g·β and −β·g·α

	var done linalg.LaneMask
	for iter := 1; live != 0; iter++ {
		running := live
		failed, err := set.Inverse(g, bulk, live)
		for l := range errs {
			if failed.Has(l) {
				errs[l] = fmt.Errorf("negf: decimation inversion failed: %w", err)
			}
		}
		if live &^= failed; live == 0 {
			break
		}
		set.Gather(gCC, g, b.posC, b.posC)
		set.Gather(gRR, g, b.posR, b.posR)
		set.Gemm(agC, 1, alpha, gCC, 0)
		set.Gemm(bgR, 1, beta, gRR, 0)
		set.Gemm(agb, -1, agC, beta, 0)
		set.Gemm(bga, -1, bgR, alpha, 0)
		// A non-finite g shows in the updates it enters: no scan of its own.
		update, ub := set.MaxAbs(agb), set.MaxAbs(bga)
		for l, u := range ub {
			update[l] = max(update[l], u)
		}
		for l, u := range update {
			if live.Has(l) && !finite(u) {
				errs[l] = fmt.Errorf("%w: non-finite block at iteration %d", ErrNoConvergence, iter)
				live &^= 1 << l
			}
		}
		if live == 0 {
			break
		}
		set.Add(upd[right], agb, live)
		set.Add(upd[left], bga, live)
		var retired linalg.LaneMask
		for l, u := range update {
			switch {
			case !live.Has(l):
			case u < surfaceTol:
				iters[l] = iter
				retired |= 1 << l
			case iter == surfaceMaxIter:
				errs[l] = fmt.Errorf("%w: %d iterations", ErrNoConvergence, iter)
				live &^= 1 << l
			}
		}
		done |= retired
		if live &^= retired; live == 0 {
			break
		}
		set.Zero(alpha, running&^live)
		set.Zero(beta, running&^live)
		set.ScatterAdd(bulk, agb, b.posR, b.posR)
		set.ScatterAdd(bulk, bga, b.posC, b.posC)
		set.Gather(gCR, g, b.posC, b.posR)
		set.Gather(gRC, g, b.posR, b.posC)
		set.Gemm(agR, 1, alpha, gCR, 0)
		set.Gemm(bgC, 1, beta, gRC, 0)
		set.Gemm(alphaNew, 1, agR, alpha, 0)
		set.Gemm(betaNew, 1, bgC, beta, 0)
		alpha, alphaNew = alphaNew, alpha
		beta, betaNew = betaNew, beta
	}
	for _, sd := range [2]side{left, right} {
		if !want.has(sd) || done == 0 {
			continue
		}
		set.Copy(bulk, layer) // the loop is done with it: z − ε_s of this surface
		set.ScatterAdd(bulk, upd[sd], pos[sd], pos[sd])
		failed, err := set.Inverse(g, bulk, done)
		for l := range errs {
			if failed.Has(l) {
				errs[l] = fmt.Errorf("negf: surface inversion failed: %w", err)
			}
		}
		if done &^= failed; done == 0 {
			break
		}
		// Σ reads the surface function on the other support: the right
		// contact's through h01's columns, the left's through its rows.
		read := pos[1-sd]
		surf[sd] = set.Get(len(read), len(read))
		set.Gather(surf[sd], g, read, read)
		for l, u := range set.MaxAbs(surf[sd]) {
			if done.Has(l) && !finite(u) {
				errs[l] = fmt.Errorf("%w: non-finite %s surface function", ErrNoConvergence, sideNames[sd])
				done &^= 1 << l
			}
		}
	}
	return surf, iters, errs
}

// Leads bundles the two semi-infinite contacts of a device. L01 and R01
// are oriented along +x: L01 couples a left-lead layer to the next layer
// toward the device; R01 couples a right-lead layer to the next layer away
// from the device. A contact is its blocks: its only identity is the
// block family whose blocks it repeats bit for bit (family.go), so two
// Leads values share self-energies exactly when their blocks are equal.
type Leads struct {
	L00, L01 *linalg.Matrix
	R00, R01 *linalg.Matrix

	// mu guards the memo of the last resolution — the registry that asked,
	// the blocks it was shown, the families they resolved to — so a solver
	// presenting the same value every energy pays a pointer compare, not an
	// O(n²) block compare.
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
// energy z, Σ_L = L01†·g_L·L01 with g_L the left surface GF and
// Σ_R = R01·g_R·R01† with g_R the right surface GF, each as its block on
// the contact's support (Supports) — c_Γ×c_Γ and r_Γ×r_Γ; Embed puts them on
// whole layers. It is the cache's miss path without the record store: the
// same canon rule, kernel and projection, so a fresh SelfEnergyCache
// returns the same bits.
func (l *Leads) SelfEnergies(z complex128) (sigL, sigR *linalg.Matrix, err error) {
	fams, err := l.own.resolve(l)
	if err != nil {
		return nil, nil, err
	}
	return l.selfEnergies(fams, z, (*blockFamily).selfEnergies)
}

// Supports returns the contacts' supports, ascending: Σ_L lives on the
// columns of L01 (orbitals of the first device layer), Σ_R on the rows of
// R01 (of the last). It is the one definition of where a contact acts —
// a lead's block family repeats its blocks, so Σ lives on the same list —
// and the reduced open system of either formalism is built on it.
func (l *Leads) Supports() (supL, supR []int) {
	return l.spec(left).support(), l.spec(right).support()
}

// Embed returns Σ_L and Σ_R, blocks on the contacts' supports, as whole
// blocks of the first and last device layers, zero elsewhere: what a dense
// oracle adds to the open system. It copies and counts no flop.
func (l *Leads) Embed(sigL, sigR *linalg.Matrix) (fullL, fullR *linalg.Matrix) {
	supL, supR := l.Supports()
	return embed(sigL, supL, l.L00.Rows), embed(sigR, supR, l.R00.Rows)
}

// embed returns the n×n matrix holding sigma on sup × sup.
func embed(sigma *linalg.Matrix, sup []int, n int) *linalg.Matrix {
	out := linalg.New(n, n)
	for a, o := range sup {
		for b, o2 := range sup {
			out.Data[o*n+o2] = sigma.Data[a*sigma.Cols+b]
		}
	}
	return out
}

// selfEnergies routes one request to its units of work: contacts that
// continue the same cell are one request for both sides, anything else is
// one request per side. get is the cache lookup or, uncached, the kernel
// itself.
func (l *Leads) selfEnergies(fams [2]*blockFamily, z complex128, get func(*blockFamily, complex128, sideSet) ([2]*linalg.Matrix, error)) (sigL, sigR *linalg.Matrix, err error) {
	if fams[left] == fams[right] {
		sig, err := get(fams[left], z, bothSides)
		if err != nil {
			return nil, nil, fmt.Errorf("negf: leads: %w", err)
		}
		return sig[left], sig[right], nil
	}
	var sig [2]*linalg.Matrix
	for _, s := range [2]side{left, right} {
		one, err := get(fams[s], z, 1<<s)
		if err != nil {
			return nil, nil, fmt.Errorf("negf: %s lead: %w", sideNames[s], err)
		}
		sig[s] = one[s]
	}
	return sig[left], sig[right], nil
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
	broadening(dst, sigma)
	perf.AddFlops(int64(n) * int64(n) * (perf.FlopsCAdd + perf.FlopsCMul))
}

// broadening is BroadeningInto without the count: a lane group counts at
// take.
func broadening(dst, sigma *linalg.Matrix) {
	n := sigma.Rows
	for i := 0; i < n; i++ {
		dstRow := dst.Data[i*n : (i+1)*n]
		sigRow := sigma.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			d := sigRow[j] - cmplx.Conj(sigma.Data[j*n+i])
			dstRow[j] = complex(-imag(d), real(d)) // i·d
		}
	}
}

// leadSpec is one contact viewed through the cache's eyes: the raw blocks
// as built (both couplings are oriented along +x) and which side they sit
// on.
type leadSpec struct {
	side side
	h00  *linalg.Matrix // principal-layer block
	h01  *linalg.Matrix // coupling to the next layer along +x (L01 or R01)
}

// support returns the orbitals the lead's self-energy lives on: the columns
// of the left contact's coupling, the rows of the right's.
func (s leadSpec) support() []int {
	if s.side == left {
		return sparse.ColumnSupport(s.h01)
	}
	return sparse.RowSupport(s.h01)
}

func (l *Leads) spec(s side) leadSpec {
	if s == left {
		return leadSpec{side: left, h00: l.L00, h01: l.L01}
	}
	return leadSpec{side: right, h00: l.R00, h01: l.R01}
}
