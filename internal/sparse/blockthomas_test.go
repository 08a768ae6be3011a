package sparse_test

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/sparse"
	"repro/internal/tb"
)

// window is the rows×cols block one coupling is nonzero on; nil axes mean
// the whole block.
type window struct{ rows, cols []int }

// randBlock fills an r×c block on win with seeded complex entries;
// everything else stays exactly zero.
func randBlock(rng *rand.Rand, r, c int, win window) *linalg.Matrix {
	if win.rows == nil {
		win.rows = sparse.Range(0, r)
	}
	if win.cols == nil {
		win.cols = sparse.Range(0, c)
	}
	m := linalg.New(r, c)
	for _, i := range win.rows {
		for _, j := range win.cols {
			m.Set(i, j, complex(rng.Float64()-0.5, rng.Float64()-0.5))
		}
	}
	return m
}

// randSystem builds a seeded, diagonally dominant block-tridiagonal matrix
// with the given layer sizes: Upper[i] nonzero exactly on up[i], Lower[i] on
// low[i] (in its own n_{i+1}×n_i frame) — nothing Hermitian about it.
func randSystem(seed int64, sizes []int, up, low []window) *sparse.BlockTridiag {
	rng := rand.New(rand.NewSource(seed))
	nl := len(sizes)
	diag := make([]*linalg.Matrix, nl)
	upper, lower := make([]*linalg.Matrix, nl-1), make([]*linalg.Matrix, nl-1)
	for i, n := range sizes {
		diag[i] = randBlock(rng, n, n, window{})
		for a := 0; a < n; a++ {
			diag[i].Set(a, a, diag[i].At(a, a)+complex(float64(n)+2, 1))
		}
	}
	for i := range upper {
		upper[i] = randBlock(rng, sizes[i], sizes[i+1], up[i])
		lower[i] = randBlock(rng, sizes[i+1], sizes[i], low[i])
	}
	m, err := sparse.NewBlockTridiag(diag, upper, lower)
	if err != nil {
		panic(err)
	}
	return m
}

// transposed is the window of L = U† when U lives on w.
func transposed(ws []window) []window {
	out := make([]window, len(ws))
	for i, w := range ws {
		out[i] = window{w.cols, w.rows}
	}
	return out
}

// deviceSystem assembles a device description at transverse momentum ky
// and returns z·I − H as the transport solvers see it: couplings handed
// over, compressed, by the ShiftedSystem.
func deviceSystem(t *testing.T, d device.Description, ky float64, z complex128, ws *linalg.Workspace) *sparse.BlockTridiag {
	t.Helper()
	b, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	b.Options.Ky = ky
	h, err := tb.Assemble(b.Structure, b.Material, b.Options)
	if err != nil {
		t.Fatal(err)
	}
	return sparse.NewShiftedSystem(h).At(z, ws)
}

// rhsOn returns a width-k right-hand side, random in the listed layers and
// zero elsewhere.
func rhsOn(rng *rand.Rand, m *sparse.BlockTridiag, k int, layers ...int) []*linalg.Matrix {
	rhs := make([]*linalg.Matrix, m.Layers())
	for i := range rhs {
		rhs[i] = linalg.New(m.LayerSize(i), k)
	}
	for _, i := range layers {
		rhs[i] = randBlock(rng, m.LayerSize(i), k, window{})
	}
	return rhs
}

// denseSolve is the oracle: Dense() and one dense LU, sharing nothing with
// the block recurrence.
func denseSolve(t *testing.T, m *sparse.BlockTridiag, rhs []*linalg.Matrix) []*linalg.Matrix {
	t.Helper()
	off := m.Offsets()
	k := rhs[0].Cols
	b := linalg.New(m.N(), k)
	for i, blk := range rhs {
		b.SetSubmatrix(off[i], 0, blk)
	}
	f, err := linalg.FactorInPlace(m.Dense(), make([]int, m.N()))
	if err != nil {
		t.Fatal(err)
	}
	f.SolveInPlace(b)
	x := make([]*linalg.Matrix, len(rhs))
	for i := range x {
		x[i] = b.Submatrix(off[i], 0, off[i+1]-off[i], k)
	}
	return x
}

// TestBlockThomasAdversarialShapes holds the support-space block-Thomas
// kernel to Dense() + dense LU on the shapes its index arithmetic has to get
// right at the corners, mirroring negf's TestRGFAdversarialShapes: each
// matrix against right-hand sides living in the first layer only, the last
// only, everywhere, and with no column at all.
func TestBlockThomasAdversarialShapes(t *testing.T) {
	ws := linalg.GetWorkspace()
	defer ws.Release()
	// -nk 2 samples ky = ±π/(2·PeriodY): the wrapped bonds carry e^{±iπ/2}.
	utbDesc := device.Description{Name: "utb", Kind: device.SiUTB, CellsX: 4, CellsY: 1, CellsZ: 1}
	utbBuilt, err := utbDesc.Build()
	if err != nil {
		t.Fatal(err)
	}
	utb := deviceSystem(t, utbDesc, math.Pi/(2*utbBuilt.Structure.PeriodY), complex(0.3, 0.05), ws)
	var phased bool
	for _, v := range utb.Upper[0].Data {
		phased = phased || imag(v) != 0
	}
	if !phased {
		t.Fatal("utb at ky = π/2b has real couplings; the Bloch-phased case is vacuous")
	}
	ragged := []window{{[]int{0, 2}, []int{1}}, {}, {[]int{1, 2, 3}, []int{0, 2}}}
	cut := []window{{}, {rows: []int{}, cols: []int{}}, {}}
	cases := []struct {
		name  string
		m     *sparse.BlockTridiag
		check func(t *testing.T, rhsName string, x []*linalg.Matrix)
	}{
		{name: "nl = 1", m: randSystem(1, []int{5}, nil, nil)},
		{name: "nl = 2", m: randSystem(2, []int{4, 4}, []window{{[]int{1, 3}, []int{0}}}, []window{{[]int{0}, []int{1, 3}}})},
		{name: "n = 1 chain", m: randSystem(3, []int{1, 1, 1, 1, 1, 1}, make([]window, 5), make([]window, 5))},
		{name: "unequal layers, rectangular couplings", m: randSystem(4, []int{3, 2, 4, 3}, ragged, transposed(ragged))},
		{name: "dense couplings (r = n)", m: randSystem(5, []int{4, 4, 4, 4}, make([]window, 3), make([]window, 3))},
		{name: "all-zero interior coupling", m: randSystem(6, []int{3, 3, 3, 3}, cut, cut),
			check: func(t *testing.T, rhsName string, x []*linalg.Matrix) {
				// The halves decouple: a source on one side of the cut
				// leaves the other side exactly zero.
				far := map[string][]int{"first layer": {2, 3}, "last layer": {0, 1}}[rhsName]
				for _, i := range far {
					if x[i].MaxAbs() != 0 {
						t.Errorf("%s: layer %d across the cut holds %g, want exactly 0", rhsName, i, x[i].MaxAbs())
					}
				}
			}},
		// U_0 lives on {0,2}×{1}, L_0 on {0,3}×{1} of its own frame: R_0 must
		// take column 1 of L_0 … and C_0 rows 0 and 3 of it, which U_0 alone
		// would not name.
		{name: "U and L on different supports", m: randSystem(7, []int{3, 4, 3},
			[]window{{[]int{0, 2}, []int{1}}, {[]int{3}, []int{0, 1}}},
			[]window{{[]int{0, 3}, []int{1}}, {[]int{2}, []int{0, 1, 2}}})},
		{name: "utb -nk 2 (L = U† ≠ Uᵀ)", m: utb},
	}
	rng := rand.New(rand.NewSource(28))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			last := tc.m.Layers() - 1
			every := sparse.Range(0, last+1)
			for _, rc := range []struct {
				name string
				rhs  []*linalg.Matrix
			}{
				{"first layer", rhsOn(rng, tc.m, 3, 0)},
				{"last layer", rhsOn(rng, tc.m, 2, last)},
				{"every layer", rhsOn(rng, tc.m, 5, every...)},
				{"zero width", rhsOn(rng, tc.m, 0, every...)},
			} {
				want := denseSolve(t, tc.m, rc.rhs)
				x, err := tc.m.SolveBlocks(rc.rhs, ws)
				if err != nil {
					t.Fatalf("%s: SolveBlocks: %v", rc.name, err)
				}
				for i := range want {
					if x[i].Rows != want[i].Rows || x[i].Cols != want[i].Cols {
						t.Fatalf("%s: layer %d is %d×%d, want %d×%d", rc.name, i, x[i].Rows, x[i].Cols, want[i].Rows, want[i].Cols)
					}
					for j, w := range want[i].Data {
						if d := cmplx.Abs(x[i].Data[j] - w); !(d <= 1e-10*math.Max(1, cmplx.Abs(w))) {
							t.Fatalf("%s: layer %d element %d = %v, dense LU gives %v", rc.name, i, j, x[i].Data[j], w)
						}
					}
				}
				if tc.check != nil {
					tc.check(t, rc.name, x)
				}
			}
		})
	}
}

// blockResidual returns max |M·X − B| relative to max|M|·max|X| + max|B|,
// M applied through its diagonal blocks and compressed couplings (all a
// reduced system has): a backward-stable solve leaves it at rounding.
func blockResidual(m *sparse.BlockTridiag, x, b []*linalg.Matrix) float64 {
	var res, mm, xm, bm float64
	for i := range x {
		r := linalg.New(x[i].Rows, x[i].Cols)
		linalg.GemmInto(r, 1, m.Diag[i], linalg.NoTrans, x[i], linalg.NoTrans, 0)
		mm = max(mm, m.Diag[i].MaxAbs())
		// r[rows] += c·from[src]
		add := func(c *linalg.Matrix, rows, src []int, from *linalg.Matrix) {
			in, out := linalg.New(len(src), from.Cols), linalg.New(len(rows), from.Cols)
			sparse.GatherRows(in, from, src)
			linalg.GemmInto(out, 1, c, linalg.NoTrans, in, linalg.NoTrans, 0)
			sparse.ScatterAdd(r, out, rows, sparse.Range(0, from.Cols))
			mm = max(mm, c.MaxAbs())
		}
		if i < len(x)-1 {
			c := m.Coupling(i)
			add(c.U, c.Rows, c.Cols, x[i+1])
		}
		if i > 0 {
			c := m.Coupling(i - 1)
			add(c.L, c.Cols, c.Rows, x[i-1])
		}
		res, xm, bm = max(res, r.Sub(b[i]).MaxAbs()), max(xm, x[i].MaxAbs()), max(bm, b[i].MaxAbs())
	}
	return res / (mm*xm + bm)
}

// TestSolveLastBitwise holds SolveLast — one forward sweep, each layer's
// solve stopped at min R_i — to the last block of SolveBlocks bit for bit,
// and its counted flops to BlockThomasFlops with those floors, on the
// reduced open system of every T1 family under a gate-like potential (every
// layer its own record) and on the corner shapes of
// TestBlockThomasAdversarialShapes, at right-hand-side widths 1–6 random in
// every layer. The families run at a generic energy and with Re z on
// interior levels, where the guard keeps a layer whole and its interior
// rows sit below S, under the floor's rows. SolveBlocks itself is held to
// a rounding-sized residual, so a sweep both share cannot go wrong
// unseen. One-line mutations it catches: the floor one row high (rows
// differ) or low (flops differ), a forward-substitution row skipped, and
// the last layer's solve dropped.
func TestSolveLastBitwise(t *testing.T) {
	ws := linalg.GetWorkspace()
	defer ws.Release()
	rng := rand.New(rand.NewSource(31))
	type system struct {
		name string
		m    *sparse.BlockTridiag
	}
	ragged := []window{{[]int{0, 2}, []int{1}}, {}, {[]int{1, 2, 3}, []int{0, 2}}}
	cut := []window{{}, {rows: []int{}, cols: []int{}}, {}}
	systems := []system{
		{"nl = 1", randSystem(1, []int{5}, nil, nil)},
		{"n = 1 chain", randSystem(3, []int{1, 1, 1, 1, 1, 1}, make([]window, 5), make([]window, 5))},
		{"unequal layers, rectangular couplings", randSystem(4, []int{3, 2, 4, 3}, ragged, transposed(ragged))},
		{"all-zero interior coupling", randSystem(6, []int{3, 3, 3, 3}, cut, cut)},
	}
	var whole int
	for _, d := range device.BenchmarkSuite() {
		h := deviceHamiltonian(t, d, 0, func(layer int) float64 { return 0.05 * float64(layer) })
		c := openCase{d.Name, h, sparse.ColumnSupport(h.Upper[0]), sparse.RowSupport(h.Upper[h.Layers()-2])}
		open, err := sparse.NewReducedSystem(h, c.left, c.right)
		if err != nil {
			t.Fatal(err)
		}
		sigL, sigR := contactBlock(rng, len(c.left)), contactBlock(rng, len(c.right))
		energies := []complex128{complex(0.41, 1e-6)}
		levels := c.interiorLevels(t)
		for j := 0; j < len(levels); j += max(1, len(levels)/4) {
			energies = append(energies, complex(levels[j], 1e-8))
		}
		for _, z := range energies {
			r := open.At(z, sigL, sigR, ws)
			for i := 0; i < h.Layers(); i++ {
				if r.A.LayerSize(i) > open.SupportSize(i) {
					whole++
				}
			}
			systems = append(systems, system{d.Name + " at " + fmt.Sprint(z), r.A})
		}
	}
	if whole == 0 {
		t.Fatal("no energy kept a layer whole; the adversarial case is vacuous")
	}
	var floored int
	for _, s := range systems {
		m, nl := s.m, s.m.Layers()
		sizes, rows, cols, floors := make([]int, nl), make([]int, nl-1), make([]int, nl-1), make([]int, nl-1)
		for i := range sizes {
			sizes[i] = m.LayerSize(i)
		}
		for i := range rows {
			c := m.Coupling(i)
			rows[i], cols[i], floors[i] = len(c.Rows), len(c.Cols), m.LayerSize(i)
			for _, r := range c.Rows {
				floors[i] = min(floors[i], r)
			}
			if floors[i] > 0 {
				floored++
			}
		}
		for k := 1; k <= 6; k++ {
			rhs := rhsOn(rng, m, k, sparse.Range(0, nl)...)
			x, err := m.SolveBlocks(rhs, ws)
			if err != nil {
				t.Fatalf("%s: SolveBlocks: %v", s.name, err)
			}
			if res := blockResidual(m, x, rhs); !(res < 1e-12) {
				t.Fatalf("%s, k = %d: SolveBlocks leaves a relative residual of %.3g", s.name, k, res)
			}
			perf.ResetFlops()
			last, err := m.SolveLast(rhs, ws)
			if err != nil {
				t.Fatalf("%s: SolveLast: %v", s.name, err)
			}
			if got, want := perf.ResetFlops(), sparse.BlockThomasFlops(sizes, rows, cols, floors, k); got != want {
				t.Errorf("%s, k = %d: SolveLast counted %d flops, the closed form with floors %v gives %d", s.name, k, got, floors, want)
			}
			want := x[nl-1]
			if last.Rows != want.Rows || last.Cols != want.Cols {
				t.Fatalf("%s, k = %d: SolveLast returned %d×%d, want %d×%d", s.name, k, last.Rows, last.Cols, want.Rows, want.Cols)
			}
			for j, w := range want.Data {
				v := last.Data[j]
				if math.Float64bits(real(v)) != math.Float64bits(real(w)) || math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
					t.Fatalf("%s, k = %d: SolveLast element %d = %v, SolveBlocks' last block holds %v", s.name, k, j, v, w)
				}
			}
		}
	}
	t.Logf("%d systems, %d layers kept whole, %d solves stopped above row 0", len(systems), whole, floored)
	if floored == 0 {
		t.Fatal("every floor is row 0; the floored solve is vacuous")
	}
}

// TestConcurrentFirstFactor (run it under -race): 8 goroutines bring the
// first factorizations to one fresh matrix at once. Its compressed couplings
// are built exactly once — every goroutine reads the same ones — and each
// solution carries the bits of a serial factor of a copy.
func TestConcurrentFirstFactor(t *testing.T) {
	sup := []window{{[]int{0, 2, 5}, []int{1, 4}}, {}, {[]int{3}, []int{0, 1, 2}}, {[]int{1, 2}, []int{5}}}
	shared := randSystem(8, []int{6, 6, 6, 6, 6}, sup, transposed(sup))
	serial := shared.Clone()
	rhs := rhsOn(rand.New(rand.NewSource(29)), shared, 3, 0, 4)
	ws := linalg.GetWorkspace()
	defer ws.Release()
	want, err := serial.SolveBlocks(rhs, ws)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([][]*linalg.Matrix, workers)
	seen := make([]*sparse.Coupling, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			ws := linalg.GetWorkspace()
			defer ws.Release()
			x, err := shared.SolveBlocks(rhs, ws)
			errs[i] = err
			for _, blk := range x {
				got[i] = append(got[i], blk.Clone())
			}
			seen[i] = shared.Coupling(0)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, x := range got {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if seen[i] != seen[0] {
			t.Errorf("goroutine %d read couplings of its own: they were built more than once", i)
		}
		for l := range want {
			for j, w := range want[l].Data {
				v := x[l].Data[j]
				if math.Float64bits(real(v)) != math.Float64bits(real(w)) || math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
					t.Fatalf("goroutine %d: a concurrent first factor moved bits against a serial one (layer %d element %d)", i, l, j)
				}
			}
		}
	}
}

// TestBlockThomasFlopCount is the "flop totals exact" contract stated for
// this kernel, the twin of negf's TestRGFFlopCount: the counted flops of one
// SolveBlocks, and of one SolveLast, equal BlockThomasFlops — the closed form
// the machine model charges — in the layer sizes n_i, the coupling supports
// |R_i| × |C_i|, the right-hand-side width k and, for SolveLast, the floors
// min R_i its solves stop at.
func TestBlockThomasFlopCount(t *testing.T) {
	ws := linalg.GetWorkspace()
	defer ws.Release()
	ragged := []window{{[]int{0, 2}, []int{1}}, {}, {[]int{1, 2, 3}, []int{0, 2}}}
	systems := map[string]*sparse.BlockTridiag{
		"sinw":      deviceSystem(t, device.Description{Name: "sinw", Kind: device.SiNanowire, CellsX: 5, CellsY: 1, CellsZ: 1}, 0, complex(1.8, 0.1), ws),
		"ragged":    randSystem(9, []int{3, 2, 4, 3}, ragged, transposed(ragged)),
		"one layer": randSystem(10, []int{5}, nil, nil),
	}
	distinct := func(lists ...[]int) int {
		set := map[int]bool{}
		for _, l := range lists {
			for _, v := range l {
				set[v] = true
			}
		}
		return len(set)
	}
	rng := rand.New(rand.NewSource(30))
	for name, m := range systems {
		nl := m.Layers()
		sizes, rows, cols := make([]int, nl), make([]int, nl-1), make([]int, nl-1)
		for i := range sizes {
			sizes[i] = m.LayerSize(i)
		}
		for i := range rows {
			rows[i] = distinct(sparse.RowSupport(m.Upper[i]), sparse.ColumnSupport(m.Lower[i]))
			cols[i] = distinct(sparse.ColumnSupport(m.Upper[i]), sparse.RowSupport(m.Lower[i]))
		}
		if name == "sinw" && !(rows[0] > 0 && rows[0] < m.LayerSize(0) && cols[0] > 0 && cols[0] < rows[0]) {
			t.Fatalf("sinw couples %d rows to %d columns of %d; the compressed case is vacuous", rows[0], cols[0], m.LayerSize(0))
		}
		floors := make([]int, nl-1)
		for i := range floors {
			floors[i] = m.LayerSize(i)
			if r := m.Coupling(i).Rows; len(r) > 0 {
				floors[i] = slices.Min(r)
			}
		}
		if name == "sinw" && !(floors[0] > 0) {
			t.Fatalf("sinw's first coupling reads row %d on: the floored solve is vacuous", floors[0])
		}
		for _, k := range []int{0, 1, 5} {
			rhs := rhsOn(rng, m, k, sparse.Range(0, nl)...)
			for _, form := range []struct {
				name   string
				floors []int
				solve  func() error
			}{
				{"SolveBlocks", nil, func() error { _, err := m.SolveBlocks(rhs, ws); return err }},
				{"SolveLast", floors, func() error { _, err := m.SolveLast(rhs, ws); return err }},
			} {
				want := sparse.BlockThomasFlops(sizes, rows, cols, form.floors, k)
				perf.ResetFlops()
				if err := form.solve(); err != nil {
					t.Fatal(err)
				}
				if got := perf.ResetFlops(); got != want {
					t.Errorf("%s, k = %d: one %s counted %d flops, the closed form gives %d", name, k, form.name, got, want)
				}
			}
		}
	}
}
