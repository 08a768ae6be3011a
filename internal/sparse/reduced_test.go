package sparse_test

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/sparse"
	"repro/internal/tb"
)

// randHamiltonian builds a seeded Hermitian block-tridiagonal H with the
// given layer sizes, Upper[i] nonzero exactly on up[i] and Lower[i] its
// adjoint.
func randHamiltonian(seed int64, sizes []int, up []window) *sparse.BlockTridiag {
	rng := rand.New(rand.NewSource(seed))
	nl := len(sizes)
	diag := make([]*linalg.Matrix, nl)
	upper, lower := make([]*linalg.Matrix, nl-1), make([]*linalg.Matrix, nl-1)
	for i, n := range sizes {
		a := randBlock(rng, n, n, window{})
		diag[i] = a.Add(a.ConjTranspose())
	}
	for i := range upper {
		upper[i] = randBlock(rng, sizes[i], sizes[i+1], up[i])
		lower[i] = upper[i].ConjTranspose()
	}
	h, err := sparse.NewBlockTridiag(diag, upper, lower)
	if err != nil {
		panic(err)
	}
	return h
}

// deviceHamiltonian assembles a device description at transverse momentum
// ky under a per-layer potential pot (nil: flat).
func deviceHamiltonian(t *testing.T, d device.Description, ky float64, pot func(layer int) float64) *sparse.BlockTridiag {
	t.Helper()
	b, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	b.Options.Ky = ky
	if pot != nil {
		b.Options.Potential = make([]float64, b.Structure.NAtoms())
		for i, a := range b.Structure.Atoms {
			b.Options.Potential[i] = pot(a.Layer)
		}
	}
	h, err := tb.Assemble(b.Structure, b.Material, b.Options)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// openCase is one Hamiltonian with its contact supports: left on the first
// layer, right on the last.
type openCase struct {
	name        string
	h           *sparse.BlockTridiag
	left, right []int
}

// reducedCases are the shapes the partition has to get right at its
// corners: layers with and without an interior, a layer whose S is empty
// between two all-zero couplings, one layer carrying both contacts, unequal
// layers, and a Bloch-phased utb block.
func reducedCases(t *testing.T) []openCase {
	ragged := []window{{[]int{0, 2}, []int{1}}, {[]int{1}, []int{0, 2}}, {[]int{1, 2, 3}, []int{0, 2}}}
	utbDesc := device.Description{Name: "utb", Kind: device.SiUTB, CellsX: 4, CellsY: 1, CellsZ: 1}
	utbBuilt, err := utbDesc.Build()
	if err != nil {
		t.Fatal(err)
	}
	utb := deviceHamiltonian(t, utbDesc, math.Pi/(2*utbBuilt.Structure.PeriodY), func(layer int) float64 { return 0.05 * float64(layer) })
	agnr := deviceHamiltonian(t, device.Description{Name: "agnr7", Kind: device.ArmchairGNR, CellsX: 5, CellsY: 7}, 0, nil)
	none := []int{}
	return []openCase{
		{"unequal layers, rectangular couplings", randHamiltonian(11, []int{4, 3, 5, 4}, ragged), []int{0, 3}, []int{1}},
		{"a layer with an empty interior", randHamiltonian(12, []int{4, 2, 4}, []window{{[]int{2}, []int{0, 1}}, {[]int{0, 1}, []int{2}}}), []int{1}, []int{0}},
		{"S empty between all-zero couplings", randHamiltonian(13, []int{3, 4, 3}, []window{{none, none}, {none, none}}), []int{0, 2}, []int{1}},
		{"nl = 1, both contacts on one layer", randHamiltonian(14, []int{6}, nil), []int{0, 4}, []int{1, 4}},
		{"a closed contact", randHamiltonian(15, []int{4, 4, 4}, []window{{[]int{1, 3}, []int{0}}, {[]int{2}, []int{1, 3}}}), none, []int{2}},
		{"utb -nk 2 (Bloch-phased blocks) under a potential", utb, sparse.ColumnSupport(utb.Upper[0]), sparse.RowSupport(utb.Upper[utb.Layers()-2])},
		{"agnr7, every layer one record", agnr, sparse.ColumnSupport(agnr.Upper[0]), sparse.RowSupport(agnr.Upper[agnr.Layers()-2])},
	}
}

// supports returns S_i of every layer, as the reduced system defines it.
func (c openCase) supports() [][]int {
	nl := c.h.Layers()
	sup := make([][]int, nl)
	for i := range sup {
		lo, hi := c.left, c.right
		if i > 0 {
			lo = sparse.ColumnSupport(c.h.Upper[i-1])
		}
		if i < nl-1 {
			hi = sparse.RowSupport(c.h.Upper[i])
		}
		sup[i] = append(slices.Clone(lo), hi...)
		slices.Sort(sup[i])
		sup[i] = slices.Compact(sup[i])
	}
	return sup
}

// interiorLevels returns every eigenvalue of every layer's H_ii[I,I].
func (c openCase) interiorLevels(t *testing.T) []float64 {
	var levels []float64
	for i, sup := range c.supports() {
		var in []int
		for o := 0; o < c.h.LayerSize(i); o++ {
			if !slices.Contains(sup, o) {
				in = append(in, o)
			}
		}
		blk := linalg.New(len(in), len(in))
		sparse.Gather(blk, c.h.Diag[i], in, in)
		vals, err := linalg.EigHValues(blk)
		if err != nil {
			t.Fatal(err)
		}
		levels = append(levels, vals...)
	}
	return levels
}

// contactBlock returns a self-energy-like block on a contact support of k
// orbitals, random with a negative anti-Hermitian part: what At reads.
func contactBlock(rng *rand.Rand, k int) *linalg.Matrix {
	m := linalg.New(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			m.Set(i, j, complex(rng.Float64()-0.5, rng.Float64()-0.5))
		}
		m.Set(i, i, m.At(i, i)-0.5i)
	}
	return m
}

// embedded returns the n×n matrix holding the support block m on sup × sup,
// zero elsewhere: the contact as the whole system adds it.
func embedded(m *linalg.Matrix, n int, sup []int) *linalg.Matrix {
	out := linalg.New(n, n)
	for a, i := range sup {
		for b, j := range sup {
			out.Set(i, j, m.At(a, b))
		}
	}
	return out
}

// TestReducedMatchesFull holds the reduced open system to the whole one:
// z − H − Σ_L − Σ_R solved by one dense LU against sources on the contact
// supports, every orbital of every layer compared — the kept rows as the
// reduced solve returns them, the interior as Orbitals recovers it — at a
// generic energy and with Re z parked on an interior level, where the guard
// keeps that layer whole. One-line mutations it catches: d = 1/(z̄ − λ)
// instead of 1/(z − λ); Wᵀ in place of W† (only the complex blocks — the
// random ones and utb's — see it); the recovery without d; no guard; Σ
// subtracted at its support indices instead of their positions in S;
// records shared by S alone, without H's bits.
func TestReducedMatchesFull(t *testing.T) {
	ws := linalg.GetWorkspace()
	defer ws.Release()
	rng := rand.New(rand.NewSource(34))
	for _, c := range reducedCases(t) {
		t.Run(c.name, func(t *testing.T) {
			red, err := sparse.NewReducedSystem(c.h, c.left, c.right)
			if err != nil {
				t.Fatal(err)
			}
			nl := c.h.Layers()
			n0, nN := c.h.LayerSize(0), c.h.LayerSize(nl-1)
			sigL, sigR := contactBlock(rng, len(c.left)), contactBlock(rng, len(c.right))
			energies := []complex128{complex(0.37, 1e-3), complex(-0.8, 1e-6)}
			levels := c.interiorLevels(t)
			if len(levels) > 0 {
				energies = append(energies, complex(levels[len(levels)/2], 1e-8))
			}
			var whole bool
			for _, z := range energies {
				a := sparse.NewShiftedSystem(c.h).At(z, ws)
				a.AddScaledToDiagBlock(0, embedded(sigL, n0, c.left), -1)
				a.AddScaledToDiagBlock(nl-1, embedded(sigR, nN, c.right), -1)
				const k = 3
				full := rhsOn(rng, a, k)
				r := red.At(z, sigL, sigR, ws)
				rhs := make([]*linalg.Matrix, nl)
				for i := range rhs {
					rhs[i] = linalg.New(r.A.LayerSize(i), k)
					whole = whole || r.A.LayerSize(i) == c.h.LayerSize(i) && r.A.LayerSize(i) > len(c.supports()[i])
				}
				posL, posR := red.LeftContact(), red.RightContact()
				for p, o := range c.left {
					for j := 0; j < k; j++ {
						v := complex(rng.Float64(), rng.Float64())
						full[0].Set(o, j, full[0].At(o, j)+v)
						rhs[0].Set(posL[p], j, rhs[0].At(posL[p], j)+v)
					}
				}
				for p, o := range c.right {
					for j := 0; j < k; j++ {
						v := complex(rng.Float64(), rng.Float64())
						full[nl-1].Set(o, j, full[nl-1].At(o, j)+v)
						rhs[nl-1].Set(posR[p], j, rhs[nl-1].At(posR[p], j)+v)
					}
				}
				want := denseSolve(t, a, full)
				x, err := r.A.SolveBlocks(rhs, ws)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					got := r.Orbitals(i, x[i], ws)
					for e, w := range want[i].Data {
						if d := cmplx.Abs(got.Data[e] - w); !(d <= 1e-9*math.Max(1, cmplx.Abs(w))) {
							t.Fatalf("z=%v layer %d orbital %d column %d: %v, the whole system gives %v", z, i, e/k, e%k, got.Data[e], w)
						}
					}
				}
			}
			if len(levels) > 0 && !whole {
				t.Errorf("no layer ran whole with Re z on an interior level; the guard was never exercised")
			}
		})
	}
}

// TestReducedSetupCountsNothing: building the reduced system — the
// eigendecompositions and W of every distinct layer — counts no flop, so it
// never lands in the meter of the task that first builds a solver.
func TestReducedSetupCountsNothing(t *testing.T) {
	h := deviceHamiltonian(t, device.Description{Name: "sinw", Kind: device.SiNanowire, CellsX: 5, CellsY: 1, CellsZ: 1}, 0,
		func(layer int) float64 { return 0.1 * float64(layer) })
	before := perf.Flops()
	if _, err := sparse.NewReducedSystem(h, sparse.ColumnSupport(h.Upper[0]), sparse.RowSupport(h.Upper[h.Layers()-2])); err != nil {
		t.Fatal(err)
	}
	if d := perf.Flops() - before; d != 0 {
		t.Fatalf("building the reduced system counted %d flops", d)
	}
}

// TestReducedFlopCount is the "flop totals exact" contract of the reduced
// solve: the flops At, one SolveBlocks on the reduced system and — with
// density — Interior on every layer count equal ReducedFlops plus
// BlockThomasFlops on the reduced layers, the closed forms the machine
// model charges. Layers whose (H_ii, S_i) repeat an earlier layer's bits
// share its M (agnr7: every layer one record); an energy on an interior
// level keeps its layer whole and pays z − H on all of it.
func TestReducedFlopCount(t *testing.T) {
	ws := linalg.GetWorkspace()
	defer ws.Release()
	rng := rand.New(rand.NewSource(35))
	cases := reducedCases(t)
	sinw := deviceHamiltonian(t, device.Description{Name: "sinw", Kind: device.SiNanowire, CellsX: 5, CellsY: 1, CellsZ: 1}, 0,
		func(layer int) float64 { return 0.1 * float64(layer%3) })
	cases = append(cases, openCase{"sinw", sinw, sparse.ColumnSupport(sinw.Upper[0]), sparse.RowSupport(sinw.Upper[sinw.Layers()-2])})
	for _, c := range cases {
		red, err := sparse.NewReducedSystem(c.h, c.left, c.right)
		if err != nil {
			t.Fatal(err)
		}
		nl := c.h.Layers()
		sizes, shared := make([]int, nl), make([]bool, nl)
		sup := c.supports()
		for i := range sizes {
			sizes[i] = c.h.LayerSize(i)
			for j := 0; j < i; j++ {
				shared[i] = shared[i] || slices.Equal(sup[i], sup[j]) && sparse.SameBits(c.h.Diag[i], c.h.Diag[j])
			}
		}
		if c.name == "agnr7, every layer one record" && slices.Contains(shared[1:], false) {
			t.Fatalf("agnr7: layers %v share a record, want every layer after the first", shared)
		}
		energies := []complex128{complex(0.41, 1e-6)}
		if levels := c.interiorLevels(t); len(levels) > 0 {
			energies = append(energies, complex(levels[0], 1e-8))
		}
		sigL, sigR := contactBlock(rng, len(c.left)), contactBlock(rng, len(c.right))
		for _, z := range energies {
			for _, density := range []bool{false, true} {
				const k = 4
				perf.ResetFlops()
				r := red.At(z, sigL, sigR, ws)
				sups, rows, cols := make([]int, nl), make([]int, nl-1), make([]int, nl-1)
				rhs := make([]*linalg.Matrix, nl)
				for i := range sups {
					sups[i] = r.A.LayerSize(i)
					rhs[i] = linalg.New(sups[i], k)
				}
				for i := range rows {
					rows[i], cols[i] = len(r.A.Coupling(i).Rows), len(r.A.Coupling(i).Cols)
				}
				x, err := r.A.SolveBlocks(rhs, ws)
				if err != nil {
					t.Fatal(err)
				}
				if density {
					for i := range x {
						ws.Put(r.Interior(i, x[i], ws))
					}
				}
				want := sparse.ReducedFlops(sizes, sups, shared, len(c.left), len(c.right), k, density) + sparse.BlockThomasFlops(sups, rows, cols, nil, k)
				if got := perf.ResetFlops(); got != want {
					t.Errorf("%s z=%v density %v: one reduced solve counted %d flops, the closed form gives %d", c.name, z, density, got, want)
				}
			}
		}
	}
}

// gram returns the k×k Gram Σ_rows x̄_{o,a}·x_{o,b} of the rows of the
// blocks, all k columns wide.
func gram(k int, blocks ...*linalg.Matrix) *linalg.Matrix {
	g := linalg.New(k, k)
	for _, m := range blocks {
		for o := 0; o < m.Rows; o++ {
			row := m.Data[o*k : (o+1)*k]
			for a, va := range row {
				for b, vb := range row {
					g.Data[a*k+b] += cmplx.Conj(va) * vb
				}
			}
		}
	}
	return g
}

// TestInteriorGramIsTheOrbitals is the identity the layer-resolved spectra
// rest on: V is unitary, so on every layer the Gram of [x_S; Interior(x_S)]
// equals the Gram of the recovered orbitals (Orbitals, its own products) to
// 1e-12 relative — every T1 family under a sinusoidal potential (every
// layer its own record), random x on the kept rows, at a generic energy and
// with Re z on, 1e-7 from and 1e-4 from interior levels, so that both
// partitions run: the interior eliminated, and the layer kept whole, where
// Interior is 0×k. The recovered interior must also solve the layer's
// interior rows, (z − H[I,I])·x_I = H[I,S]·x_S, against a dense inverse
// (1e-9, the inverse's own conditioning): with W read off wrongly in
// NewLayer the Gram identity still holds, and this is what fails. One-line
// mutations it catches: Interior without d; the Gram without the interior
// term (Interior returning 0 rows); W = H[I,S] where V†·H[I,S] is meant.
func TestInteriorGramIsTheOrbitals(t *testing.T) {
	ws := linalg.GetWorkspace()
	defer ws.Release()
	rng := rand.New(rand.NewSource(46))
	var elim, whole int
	for _, d := range device.BenchmarkSuite() {
		nl := d.CellsX
		h := deviceHamiltonian(t, d, 0, func(layer int) float64 {
			return 0.15 * math.Sin(2*math.Pi*(float64(layer)+0.5)/float64(nl))
		})
		c := openCase{d.Name, h, sparse.ColumnSupport(h.Upper[0]), sparse.RowSupport(h.Upper[nl-2])}
		red, err := sparse.NewReducedSystem(h, c.left, c.right)
		if err != nil {
			t.Fatal(err)
		}
		sup := c.supports()
		sigL, sigR := contactBlock(rng, len(c.left)), contactBlock(rng, len(c.right))
		levels := c.interiorLevels(t)
		energies := []complex128{complex(0.37, 1e-6)}
		for j := 0; j < len(levels); j += max(1, len(levels)/3) {
			for _, off := range []float64{0, 1e-7, 1e-4} {
				energies = append(energies, complex(levels[j]+off, 1e-8))
			}
		}
		var worst float64
		for _, z := range energies {
			r := red.At(z, sigL, sigR, ws)
			for i := 0; i < nl; i++ {
				const k = 3
				x := linalg.New(r.A.LayerSize(i), k)
				for e := range x.Data {
					x.Data[e] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
				}
				y := r.Interior(i, x, ws)
				orb := r.Orbitals(i, x, ws)
				want := gram(k, orb)
				miss := gram(k, x, y).Sub(want).MaxAbs() / want.MaxAbs()
				if !(miss <= 1e-12) {
					t.Fatalf("%s z=%v layer %d: the Gram of [x_S; Interior] is %.3g from the orbitals'", d.Name, z, i, miss)
				}
				worst = max(worst, miss)
				in := len(orb.Data)/k - len(sup[i])
				if y.Rows == 0 {
					whole += min(1, in)
				} else {
					elim++
					holdInterior(t, z, h.Diag[i], sup[i], orb, k, ws)
				}
				ws.Put(y)
				ws.Put(orb)
			}
		}
		t.Logf("%-14s %d energies, worst relative Gram error %.2g", d.Name, len(energies), worst)
	}
	if elim == 0 || whole == 0 {
		t.Errorf("%d layers ran eliminated and %d whole with an interior; both partitions must run", elim, whole)
	}
}

// holdInterior checks that the interior rows of the layer's orbitals x
// (block h, support sup, every orbital in the layer's order) solve
// (z − h[I,I])·x_I = h[I,S]·x_S, read off a dense inverse of z − h[I,I].
func holdInterior(t *testing.T, z complex128, h *linalg.Matrix, sup []int, x *linalg.Matrix, k int, ws *linalg.Workspace) {
	t.Helper()
	var in []int
	for o := 0; o < h.Rows; o++ {
		if !slices.Contains(sup, o) {
			in = append(in, o)
		}
	}
	cols := sparse.Range(0, k)
	hII, hIS := linalg.New(len(in), len(in)), linalg.New(len(in), len(sup))
	sparse.Gather(hII, h, in, in)
	sparse.Gather(hIS, h, in, sup)
	xS, xI := linalg.New(len(sup), k), linalg.New(len(in), k)
	sparse.Gather(xS, x, sup, cols)
	sparse.Gather(xI, x, in, cols)
	a := linalg.New(len(in), len(in))
	linalg.ShiftedNegInto(a, hII, z)
	inv := linalg.New(len(in), len(in))
	if err := linalg.InverseInto(inv, a, ws); err != nil {
		t.Fatal(err)
	}
	want := inv.Mul(hIS.Mul(xS))
	if miss := xI.Sub(want).MaxAbs() / want.MaxAbs(); !(miss <= 1e-9) {
		t.Fatalf("z=%v: the recovered interior is %.3g from (z − H[I,I])⁻¹·H[I,S]·x_S", z, miss)
	}
}
