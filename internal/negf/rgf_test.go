package negf

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/sparse"
	"repro/internal/tb"
)

// builtSolver assembles a device description under the per-layer potential
// pot (nil: flat) and continues its end layers into flat-band contacts.
func builtSolver(t *testing.T, d device.Description, ky float64, pot func(layer int) float64) *Solver {
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
	sol, err := NewSolver(h, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	sol.Cache = NewSelfEnergyCache() // the oracle asks for each energy's Σ five times
	return sol
}

// randomBlock fills an r×c block on rows×cols (nil: the whole axis) with
// seeded complex entries; everything else stays exactly zero.
func randomBlock(rng *rand.Rand, r, c int, rows, cols []int) *linalg.Matrix {
	if rows == nil {
		rows = sparse.Range(0, r)
	}
	if cols == nil {
		cols = sparse.Range(0, c)
	}
	m := linalg.New(r, c)
	for _, i := range rows {
		for _, j := range cols {
			m.Set(i, j, complex(rng.Float64()-0.5, rng.Float64()-0.5))
		}
	}
	return m
}

// support is the rows×cols window one coupling of a random device is
// nonzero on; the zero value means the whole block.
type support struct{ rows, cols []int }

// randomSolver builds a seeded Hermitian block-tridiagonal device with the
// given layer sizes, coupling i nonzero exactly on sup[i], between contacts
// that continue its end blocks through the couplings supL and supR.
func randomSolver(seed int64, sizes []int, sup []support, supL, supR support) *Solver {
	rng := rand.New(rand.NewSource(seed))
	nl := len(sizes)
	diag := make([]*linalg.Matrix, nl)
	upper, lower := make([]*linalg.Matrix, nl-1), make([]*linalg.Matrix, nl-1)
	for i, n := range sizes {
		d := randomBlock(rng, n, n, nil, nil)
		diag[i] = linalg.New(n, n)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				diag[i].Set(a, b, (d.At(a, b)+cmplx.Conj(d.At(b, a)))/2)
			}
		}
	}
	for i := range upper {
		upper[i] = randomBlock(rng, sizes[i], sizes[i+1], sup[i].rows, sup[i].cols)
		lower[i] = upper[i].ConjTranspose()
	}
	h, err := sparse.NewBlockTridiag(diag, upper, lower)
	if err != nil {
		panic(err)
	}
	n0, nN := sizes[0], sizes[nl-1]
	return &Solver{H: h, Eta: 1e-6, Leads: &Leads{
		L00: diag[0].Clone(), L01: randomBlock(rng, n0, n0, supL.rows, supL.cols),
		R00: diag[nl-1].Clone(), R01: randomBlock(rng, nN, nN, supR.rows, supR.cols),
	}}
}

// oneLayerSolver is a single block carrying both self-energies; raggedSolver
// has layers of unequal size, rectangular couplings and a dense one between.
func oneLayerSolver() *Solver {
	return randomSolver(1, []int{5}, nil, support{[]int{0, 2}, []int{1, 3, 4}}, support{[]int{1, 4}, []int{0, 2}})
}

func raggedSolver() *Solver {
	return randomSolver(3, []int{3, 2, 4, 3}, []support{{[]int{0, 2}, []int{1}}, {}, {[]int{1, 2, 3}, []int{0, 2}}},
		support{[]int{0, 1}, []int{2}}, support{[]int{1}, []int{0, 2}})
}

// sigmaSound is the precondition of every oracle comparison: both contact
// self-energies at e satisfy their own Dyson equation to 1e-6·max(1, ‖Σ‖).
// An energy that fails it is logged and skipped by the caller, never
// compared silently: within ~1e-6 eV of a level of the isolated lead cell
// the decimation can return a non-causal Σ as converged (ROADMAP item 6),
// and no solver downstream of it owes anyone an answer.
func sigmaSound(t *testing.T, name string, sol *Solver, e float64) bool {
	t.Helper()
	z := complex(e, sol.Eta)
	sigL, sigR, err := sol.selfEnergies(z)
	if err != nil {
		t.Fatalf("%s E=%v: %v", name, e, err)
	}
	for s, sig := range [2]*linalg.Matrix{left: sigL, right: sigR} {
		fam := familyOf(t, sol.Leads.spec(side(s)))
		if res := dysonResidual(t, fam, z, sig, side(s)); !(res <= 1e-6*math.Max(1, maxAbs(sig))) {
			t.Logf("%s E=%v: SKIPPED — Σ_%s fails its Dyson precondition: residual %.3g, ‖Σ‖ = %.3g", name, e, sideNames[s], res, maxAbs(sig))
			return false
		}
	}
	return true
}

// gammaRank counts the eigenvalues of Γ = i(Σ − Σ†) above rounding: an
// upper bound on the channels the contact can feed.
func gammaRank(t *testing.T, sigma *linalg.Matrix) int {
	t.Helper()
	gam := linalg.New(sigma.Rows, sigma.Cols)
	BroadeningInto(gam, sigma)
	vals, err := linalg.EigHValues(gam)
	if err != nil {
		t.Fatal(err)
	}
	var rank int
	for _, v := range vals {
		if v > 1e-12*math.Max(1, maxAbs(gam)) {
			rank++
		}
	}
	return rank
}

// holdToDense solves e with the RGF kernel, density on, and holds T, and
// A_L and A_R on every layer, to the dense inverse of the same open system —
// an oracle that shares no recursion with the kernel — within
// 1e-9·max(1, |x|), then to the bounds any retarded Green's function obeys,
// G read off the dense inverse here and summed over each layer i:
// A_L,i ≥ 0, A_R,i ≥ 0, A_L,i + A_R,i ≤ Σ_{o∈i} −2·Im G_oo (what is left is
// 2η·Tr_i(G·G†) ≥ 0, the part of −Im Tr_i G/π the DOS leaves out) and
// 0 ≤ T ≤ min(rank Γ_L, rank Γ_R). The density-off pass must return the
// density-on pass's T bit for bit — it is the same kernel — and no density
// field. It returns nil when the energy was skipped.
func holdToDense(t *testing.T, name string, sol *Solver, e float64) *Result {
	t.Helper()
	if !sigmaSound(t, name, sol, e) {
		return nil
	}
	got, err := sol.Solve(e, true)
	if err != nil {
		t.Fatalf("%s E=%v: %v", name, e, err)
	}
	want, err := sol.DenseReference(e, true)
	if err != nil {
		t.Fatalf("%s E=%v, dense: %v", name, e, err)
	}
	const tol = 1e-9
	far := func(a, b float64) bool { return !(math.Abs(a-b) <= tol*math.Max(1, math.Abs(b))) }
	if far(got.T, want.T) {
		t.Errorf("%s E=%v: T = %.12g, dense %.12g", name, e, got.T, want.T)
	}
	var scale float64
	for i := range want.SpectralL {
		scale = math.Max(scale, math.Max(want.SpectralL[i], want.SpectralR[i]))
		if far(got.SpectralL[i], want.SpectralL[i]) || far(got.SpectralR[i], want.SpectralR[i]) {
			t.Errorf("%s E=%v layer %d: A_L %.12g A_R %.12g, dense %.12g %.12g", name, e, i,
				got.SpectralL[i], got.SpectralR[i], want.SpectralL[i], want.SpectralR[i])
			break
		}
	}
	eps := tol * math.Max(1, scale)
	g, sigL, sigR, err := sol.denseGreen(e)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range layerSums(sol.H, func(o int) float64 { return -2 * imag(g.At(o, o)) }) {
		if al, ar := got.SpectralL[i], got.SpectralR[i]; al < -eps || ar < -eps || al+ar > a+eps {
			t.Errorf("%s E=%v layer %d: A_L = %g, A_R = %g, Σ −2·Im G_oo = %g break 0 ≤ A_L, 0 ≤ A_R, A_L + A_R ≤ A", name, e, i, al, ar, a)
			break
		}
	}
	if open := float64(min(gammaRank(t, sigL), gammaRank(t, sigR))); got.T < -tol || got.T > open+tol*math.Max(1, open) {
		t.Errorf("%s E=%v: T = %g outside [0, %g], the ranks of Γ", name, e, got.T, open)
	}
	off, err := sol.Solve(e, false)
	if err != nil {
		t.Fatal(err)
	}
	if off.T != got.T || off.SpectralL != nil || off.SpectralR != nil {
		t.Errorf("%s E=%v: the density-off pass returns T = %v (density fields set: %v %v), density-on %v",
			name, e, off.T, off.SpectralL != nil, off.SpectralR != nil, got.T)
	}
	return got
}

// TestRGFMatchesDenseEveryFamily runs every T1 device family under a
// sinusoidal potential — different contacts at the two ends, every interior
// layer its own block — over a seeded energy set through bands and gaps.
// The dense oracle works on the whole N×N device, so the two families beyond
// N = 320 get a third of the energies (one under -short).
func TestRGFMatchesDenseEveryFamily(t *testing.T) {
	for _, d := range device.BenchmarkSuite() {
		nl := d.CellsX
		sol := builtSolver(t, d, 0, func(layer int) float64 {
			return 0.15 * math.Sin(2*math.Pi*(float64(layer)+0.5)/float64(nl))
		})
		n := sol.H.N()
		count := 12
		if n > 320 {
			count = 4
			if testing.Short() {
				count = 1
			}
		}
		rng := rand.New(rand.NewSource(27))
		var held int
		for k := 0; k < count; k++ {
			if holdToDense(t, d.Name, sol, -2+5*rng.Float64()) != nil {
				held++
			}
		}
		t.Logf("%-14s N=%-4d %d of %d energies held to the dense inverse", d.Name, n, held, count)
		if held == 0 {
			t.Errorf("%s: every energy was skipped; the comparison is vacuous", d.Name)
		}
	}
}

// TestRGFAdversarialShapes runs the kernel on the device shapes its index
// arithmetic has to get right at the corners, mirroring the boundary
// kernel's TestAdversarialShapes.
func TestRGFAdversarialShapes(t *testing.T) {
	// -nk 2 samples ky = ±π/(2·PeriodY): the wrapped bonds carry e^{±iπ/2}.
	utbDesc := device.Description{Name: "utb", Kind: device.SiUTB, CellsX: 4, CellsY: 1, CellsZ: 1}
	utbBuilt, err := utbDesc.Build()
	if err != nil {
		t.Fatal(err)
	}
	utb := builtSolver(t, utbDesc, math.Pi/(2*utbBuilt.Structure.PeriodY), func(layer int) float64 { return 0.05 * float64(layer) })
	var phased bool
	for _, v := range utb.H.Upper[0].Data {
		phased = phased || imag(v) != 0
	}
	if !phased {
		t.Fatal("utb at ky = π/2b has real couplings; the Bloch-phased case is vacuous")
	}
	energies := []float64{-0.45, 0.05, 0.3}
	cut := []support{{}, {rows: []int{}, cols: []int{}}, {}}
	cases := []struct {
		name     string
		sol      *Solver
		energies []float64
		check    func(t *testing.T, r *Result)
	}{
		{name: "nl = 1 (both Σ on one block)", sol: oneLayerSolver()},
		{name: "nl = 2", sol: randomSolver(2, []int{4, 4}, []support{{[]int{1, 3}, []int{0}}}, support{}, support{[]int{2}, []int{0, 1}})},
		{name: "n = 1 chain", sol: chainSolver(t, 6, 0, -1, []float64{0, 0.1, 0.4, -0.2, 0.1, 0}, 1e-6), energies: []float64{-1.2, 0.3, 2.6}},
		{name: "unequal layers, rectangular couplings", sol: raggedSolver()},
		{name: "dense couplings (r = n)", sol: randomSolver(4, []int{4, 4, 4, 4}, make([]support, 3), support{}, support{})},
		{name: "all-zero interior coupling", sol: randomSolver(5, []int{3, 3, 3, 3}, cut, support{}, support{}),
			check: func(t *testing.T, r *Result) {
				if r.T != 0 {
					t.Errorf("T = %g across a cut device, want exactly 0", r.T)
				}
				for i := range r.SpectralL {
					// Layers 0 and 1 sit left of the cut, 2 and 3 right of it.
					beyond := r.SpectralL[i]
					if i < 2 {
						beyond = r.SpectralR[i]
					}
					if beyond != 0 {
						t.Errorf("layer %d carries %g from the contact across the cut", i, beyond)
					}
				}
			}},
		{name: "utb -nk 2 (L = U† ≠ Uᵀ)", sol: utb, energies: []float64{-1.5, 0.8, 2.2, 3.1}},
		{name: "closed left contact (Σ_L = 0)", sol: randomSolver(6, []int{3, 4, 3}, []support{{[]int{0, 1}, []int{2, 3}}, {}}, support{[]int{}, []int{}}, support{}),
			check: func(t *testing.T, r *Result) {
				if r.T != 0 {
					t.Errorf("T = %g into a closed contact, want exactly 0", r.T)
				}
				for i, v := range r.SpectralL {
					if v != 0 {
						t.Errorf("A_L[%d] = %g from a closed contact", i, v)
					}
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.energies == nil {
				tc.energies = energies
			}
			var held int
			for _, e := range tc.energies {
				r := holdToDense(t, tc.name, tc.sol, e)
				if r == nil {
					continue
				}
				held++
				if tc.check != nil {
					tc.check(t, r)
				}
			}
			if held == 0 {
				t.Error("every energy was skipped; the case is vacuous")
			}
		})
	}

	// 80 cells of AGNR-7 at midgap: thirty decades of decay through the
	// r-column recursions, too long for the dense oracle, held instead to
	// earlier kernels: T = 1.291683e-49 from the n×n kernel the reduced one
	// replaced, and the last layer's A_L = 1.235477e-43 from the reduced
	// kernel's orbital-resolved spectra summed over that layer (its last
	// orbital read 1.141096e-44, the n×n kernel's 1.141068e-44).
	t.Run("80-cell AGNR-7 in the gap", func(t *testing.T) {
		sol := builtSolver(t, device.Description{Name: "agnr7-80", Kind: device.ArmchairGNR, CellsX: 80, CellsY: 7}, 0, nil)
		r, err := sol.Solve(0, true)
		if err != nil {
			t.Fatal(err)
		}
		last := r.SpectralL[len(r.SpectralL)-1]
		if !(r.T >= 0 && r.T < 1e-40) || math.Abs(last/1.235477e-43-1) > 1e-3 {
			t.Errorf("T = %g, A_L[last] = %g; want 0 ≤ T < 1e-40 and A_L[last] = 1.235477e-43 to 1e-3", r.T, last)
		}
		for i := range r.SpectralL {
			if !finite(r.SpectralL[i]) || !finite(r.SpectralR[i]) {
				t.Fatalf("layer %d: non-finite A_L/A_R %g %g", i, r.SpectralL[i], r.SpectralR[i])
			}
		}
	})
}

// TestConcurrentFirstSolve (run it under -race): 8 goroutines bring the first
// energies to one fresh Solver at once. The reduced open system is built
// inside openOnce, exactly once, and read without a lock by every solve; each
// result carries the bits a serial solver of its own returns.
func TestConcurrentFirstSolve(t *testing.T) {
	d := device.Description{Name: "agnr7", Kind: device.ArmchairGNR, CellsX: 12, CellsY: 7}
	shared, serial := builtSolver(t, d, 0, nil), builtSolver(t, d, 0, nil)
	const workers = 8
	got := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = shared.Solve(0.9+0.05*float64(i%4), true)
		}(i)
	}
	close(start)
	wg.Wait()
	open := shared.open
	for i, r := range got {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		want, err := serial.Solve(0.9+0.05*float64(i%4), true)
		if err != nil {
			t.Fatal(err)
		}
		same := r.T == want.T
		for k := range want.SpectralL {
			same = same && r.SpectralL[k] == want.SpectralL[k] && r.SpectralR[k] == want.SpectralR[k]
		}
		if !same {
			t.Errorf("goroutine %d: a concurrent first solve moved bits against a serial solver", i)
		}
	}
	if open == nil {
		t.Fatal("no reduced system after the first solves")
	}
	if _, err := shared.Solve(1.3, false); err != nil || shared.open != open {
		t.Errorf("the reduced system was rebuilt after the first solves (err %v)", err)
	}
}

// layerSupports returns S_i of every layer as the solver's reduced system
// partitions it — the columns of the coupling from the left and the rows of
// the one to the right, the contacts' supports on the end layers — and the
// eigenvalues of each layer's interior block H_ii[I,I].
func layerSupports(t *testing.T, sol *Solver) (sup [][]int, levels [][]float64) {
	t.Helper()
	h, nl := sol.H, sol.H.Layers()
	sup, levels = make([][]int, nl), make([][]float64, nl)
	for i := range sup {
		lo, hi := sparse.ColumnSupport(sol.Leads.L01), sparse.RowSupport(sol.Leads.R01)
		if i > 0 {
			lo = sparse.ColumnSupport(h.Upper[i-1])
		}
		if i < nl-1 {
			hi = sparse.RowSupport(h.Upper[i])
		}
		sup[i] = sparse.Union(lo, hi)
		var in []int
		for o := 0; o < h.LayerSize(i); o++ {
			if !slices.Contains(sup[i], o) {
				in = append(in, o)
			}
		}
		blk := linalg.New(len(in), len(in))
		sparse.Gather(blk, h.Diag[i], in, in)
		vals, err := linalg.EigHValues(blk)
		if err != nil {
			t.Fatal(err)
		}
		levels[i] = vals
	}
	return sup, levels
}

// keptSizes returns the order of every layer of the reduced system at e —
// |S_i| where the interior is eliminated, n_i where the guard keeps the
// layer whole — with the self-energies it is built from.
func keptSizes(t *testing.T, sol *Solver, e float64) (sizes []int, sigL, sigR *linalg.Matrix) {
	t.Helper()
	sigL, sigR, err := sol.selfEnergies(complex(e, sol.Eta))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sol.reduced()
	if err != nil {
		t.Fatal(err)
	}
	ws := linalg.GetWorkspace()
	defer ws.Release()
	red := sys.At(complex(e, sol.Eta), sigL, sigR, ws)
	sizes = make([]int, sol.H.Layers())
	for i := range sizes {
		sizes[i] = red.A.LayerSize(i)
	}
	return sizes, sigL, sigR
}

// TestRGFFlopCount is the "flop totals exact" contract stated for this
// kernel: the counted flops of one solve, density off and on, equal a closed
// form — sparse.ReducedFlops for the reduced open system (the interior at
// width c_Γ + r_Γ with density), plus per layer of order m_i (|S_i|, or n_i
// where the guard keeps it whole) one m_i×m_i LU solved against the |S_i|
// support columns and products with an r-sized dimension, plus the forms
// v·Γ_L·v† and v·Γ_R·v† on the rows v of [x_i; y_i] — m_i kept rows and
// n_i − m_i interior ones, n_i either way — at c_Γ(c_Γ+1)/2 + r_Γ(r_Γ+1)/2
// multiply-adds each. Solving against all m_i columns, or forming the back
// substitution on every row without density, moves the count off the
// closed form. The sinw case runs once more with Re z on an interior level,
// where a layer kept whole is counted.
func TestRGFFlopCount(t *testing.T) {
	wire := builtSolver(t, device.Description{Name: "sinw", Kind: device.SiNanowire, CellsX: 5, CellsY: 1, CellsZ: 1}, 0,
		func(layer int) float64 { return 0.1 * float64(layer%3) })
	_, levels := layerSupports(t, wire)
	type energy struct {
		name string
		sol  *Solver
		e    float64
	}
	cases := []energy{{"sinw", wire, 1.8}, {"ragged", raggedSolver(), 1.8}, {"one layer", oneLayerSolver(), 1.8},
		{"sinw on an interior level of layer 2", wire, levels[2][len(levels[2])/2]}}
	for _, tc := range cases {
		sol, e := tc.sol, tc.e
		z := complex(e, sol.Eta)
		kept, sigL, sigR := keptSizes(t, sol, e)
		sys, err := sol.reduced()
		if err != nil {
			t.Fatal(err)
		}
		h := sol.H
		nl := h.Layers()
		sup, _ := layerSupports(t, sol)
		sizes, sups, shared := make([]int, nl), make([]int, nl), make([]bool, nl)
		var whole int
		for i := range sizes {
			sizes[i], sups[i] = h.LayerSize(i), len(sup[i])
			if sups[i] != sys.SupportSize(i) {
				t.Fatalf("%s layer %d: |S| = %d, the reduced system keeps %d", tc.name, i, sups[i], sys.SupportSize(i))
			}
			if kept[i] > sups[i] {
				whole++
			}
			for j := 0; j < i; j++ {
				shared[i] = shared[i] || slices.Equal(sup[i], sup[j]) && sparse.SameBits(h.Diag[i], h.Diag[j])
			}
		}
		if strings.Contains(tc.name, "interior level") && whole == 0 {
			t.Fatalf("%s: no layer kept whole; the case is vacuous", tc.name)
		}
		posL, posR := sys.LeftContact(), sys.RightContact()
		cG, rG := len(posL), len(posR)
		rows, cols := make([]int, nl-1), make([]int, nl-1)
		for i := range rows {
			rows[i], cols[i] = len(sparse.RowSupport(h.Upper[i])), len(sparse.ColumnSupport(h.Upper[i]))
		}
		gemm := func(n, k, p int) int64 { return perf.GemmFlops(n, k, p) }
		sq := func(n int) int64 { return int64(n) * int64(n) }
		for _, density := range []bool{false, true} {
			// Contacts: Γ on its support, twice; the Caroli trace.
			want := (sq(cG)+sq(rG))*(perf.FlopsCAdd+perf.FlopsCMul) +
				gemm(cG, cG, rG) + gemm(cG, rG, rG) + int64(cG*rG)*perf.FlopsCMulAdd +
				sparse.ReducedFlops(sizes, kept, shared, cG, rG, cG+rG, density)
			for i := 0; i < nl; i++ {
				m := kept[i]
				// Forward: the fold, the LU and its solve against S_i.
				want += perf.LUFlops(m) + perf.SolveFlops(m, sups[i])
				w := cG
				if i > 0 {
					r, c := rows[i-1], cols[i-1]
					want += gemm(c, r, r) + gemm(c, r, c) + sq(c)*perf.FlopsCAdd
					w = c
				}
				// Backward: u_i·X_{i+1}[C_i, :] and g_i[rows, R_i]·that, on
				// the R_Γ columns of rows W_i, or with density on both column
				// sets of every kept row.
				height, width := w, rG
				if density {
					height, width = m, cG+rG
				}
				if i < nl-1 {
					want += gemm(rows[i], cols[i], width) + gemm(height, rows[i], width)
				}
				if density {
					if i > 0 {
						want += gemm(m, w, cG) // g^L_{i,0}[:, C_Γ]
					}
					if i < nl-1 {
						want += gemm(cols[i], rows[i], cG) // l_i·g^L_{i,0}[R_i, C_Γ]
					}
					want += int64(sizes[i]) * int64(cG*(cG+1)/2+rG*(rG+1)/2) * perf.FlopsCMulAdd
				}
			}
			perf.ResetFlops()
			if _, err := sol.solveWithSigma(e, z, sigL, sigR, density); err != nil {
				t.Fatal(err)
			}
			if got := perf.ResetFlops(); got != want {
				t.Errorf("%s, density %v: one solve counted %d flops, the closed form gives %d", tc.name, density, got, want)
			}
		}
	}
}

// TestRGFAdversarialEnergies is wavefunction's TestReducedAdversarialEnergies
// for RGF: Re z parked on the interior levels of every layer — where the
// reduced system divides by δ = |z − λ| and, on the level itself, the guard
// keeps the layer whole — and at ±1e-7 and ±1e-4 from them, at η = 1e-6 and
// 1e-8, on every T1 family under the sinusoidal potential (every layer its
// own record). T, and A_L and A_R of every layer, of Solve(e, true) must
// stay within 1e-9·max(1, |x|) of DenseReference, the dense inverse of the
// whole open system. Skipped and logged, never compared silently: an energy whose Σ
// fails its Dyson precondition (sigmaSound), and one beside a pole of Σ, a
// surface state of the lead, where ‖Σ‖ > 1e6 — there any solver and the
// dense inverse itself carry absolute errors of ~ε·‖Σ‖ on A (AGNR-7 under
// this potential has such poles at ±0.0388 eV, ‖Σ‖ up to 9e8 at η = 1e-8,
// on interior levels of its end layers, and the RGF before the reduction
// missed the oracle there by 5e-9 to 1.1e-8 as well). The families up to
// N = 170 run every level inside [−3, 8] eV, the larger ones an even stride
// of them (a quarter of each under -short), as the dense oracle is O(N³).
// A family whose interior has one level per layer never keeps a layer
// whole; the suite as a whole must.
func TestRGFAdversarialEnergies(t *testing.T) {
	offsets := []float64{0, 1e-7, -1e-7, 1e-4, -1e-4}
	var wholeAll int
	for _, d := range device.BenchmarkSuite() {
		nl := d.CellsX
		pot := func(layer int) float64 { return 0.15 * math.Sin(2*math.Pi*(float64(layer)+0.5)/float64(nl)) }
		var worst float64
		var asked, skipped, whole int
		for _, eta := range []float64{1e-6, 1e-8} {
			sol := builtSolver(t, d, 0, pot)
			sol.Eta = eta
			_, perLayer := layerSupports(t, sol)
			var levels []float64
			for _, ls := range perLayer {
				for _, l := range ls {
					if l >= -3 && l <= 8 {
						levels = append(levels, l)
					}
				}
			}
			if len(levels) == 0 {
				t.Fatalf("%s: no interior level inside the window; the test is vacuous", d.Name)
			}
			keep := len(levels)
			if sol.H.N() > 640 {
				keep = 2
			} else if sol.H.N() > 170 {
				keep = 12
			}
			if testing.Short() {
				keep = max(1, keep/4)
			}
			stride := max(1, len(levels)/keep)
			for j := 0; j < len(levels); j += stride {
				for _, off := range offsets {
					e := levels[j] + off
					if !sigmaSound(t, d.Name, sol, e) {
						skipped++
						continue
					}
					if sigL, sigR, _ := sol.selfEnergies(complex(e, eta)); max(maxAbs(sigL), maxAbs(sigR)) > 1e6 {
						t.Logf("%s η=%g E=%v: SKIPPED — beside a pole of Σ, ‖Σ‖ = %.3g", d.Name, eta, e, max(maxAbs(sigL), maxAbs(sigR)))
						skipped++
						continue
					}
					asked++
					kept, _, _ := keptSizes(t, sol, e)
					for i, m := range kept {
						if m == sol.H.LayerSize(i) && m > sol.open.SupportSize(i) {
							whole++
							break
						}
					}
					got, err := sol.Solve(e, true)
					if err != nil {
						t.Fatalf("%s η=%g E=%v: %v", d.Name, eta, e, err)
					}
					want, err := sol.DenseReference(e, true)
					if err != nil {
						t.Fatalf("%s η=%g E=%v, dense: %v", d.Name, eta, e, err)
					}
					rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(1, math.Abs(b)) }
					miss := rel(got.T, want.T)
					for i := range want.SpectralL {
						miss = max(miss, rel(got.SpectralL[i], want.SpectralL[i]), rel(got.SpectralR[i], want.SpectralR[i]))
					}
					worst = max(worst, miss)
					if !(miss <= 1e-9) {
						t.Errorf("%s η=%g E=%v: T or a layer's A_L or A_R %.3g from the dense inverse (T = %.12g, dense %.12g)", d.Name, eta, e, miss, got.T, want.T)
					}
				}
			}
		}
		t.Logf("%-14s %4d energies on and around interior levels (%d skipped, %d with a layer kept whole), worst relative error %.2g", d.Name, asked, skipped, whole, worst)
		if asked == 0 {
			t.Errorf("%s: every energy was skipped; the comparison is vacuous", d.Name)
		}
		wholeAll += whole
	}
	if wholeAll == 0 {
		t.Error("no energy kept a layer whole; the guard was never exercised")
	}
}

// TestSolveReportsReductionFailure: a device whose interior eigenproblem
// fails (a NaN on a layer's diagonal stops the QL iteration) is a wrapped
// error from every solve, never a panic.
func TestSolveReportsReductionFailure(t *testing.T) {
	sol := builtSolver(t, device.Description{Name: "agnr7", Kind: device.ArmchairGNR, CellsX: 5, CellsY: 7}, 0, nil)
	blk := sol.H.Diag[2]
	for o := 0; o < blk.Rows; o++ {
		blk.Set(o, o, complex(math.NaN(), 0))
	}
	for _, density := range []bool{true, false} {
		if _, err := sol.Solve(0.3, density); err == nil || !strings.Contains(err.Error(), "negf: sparse: layer 2 interior") {
			t.Errorf("density %v: Solve returned %v, want the layer's wrapped eigensolver error", density, err)
		}
	}
}
