package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveConjT materializes the Hermitian adjoint the slow, obvious way.
func naiveConjT(a *Matrix) *Matrix {
	out := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Set(j, i, cmplx.Conj(a.At(i, j)))
		}
	}
	return out
}

// naiveMul is the reference triple-loop product, free of blocking and
// unrolling, against which the fused kernels are checked.
func naiveMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s complex128
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// applyOp returns op(m) materialized.
func applyOp(m *Matrix, op Op) *Matrix {
	if op == ConjTrans {
		return naiveConjT(m)
	}
	return m.Clone()
}

func maxAbsDiff(a, b *Matrix) float64 {
	var m float64
	for i := range a.Data {
		if d := cmplx.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// propertySizes covers the degenerate shapes (empty, scalar) alongside
// sizes that straddle the unroll and blocking boundaries.
var propertySizes = []int{0, 1, 2, 3, 5, 8, 17, 65}

func TestMulIntoOpVariantsMatchMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, opA := range []Op{NoTrans, ConjTrans} {
		for _, opB := range []Op{NoTrans, ConjTrans} {
			for trial := 0; trial < 30; trial++ {
				n := propertySizes[rng.Intn(len(propertySizes))]
				k := propertySizes[rng.Intn(len(propertySizes))]
				p := propertySizes[rng.Intn(len(propertySizes))]
				var a, b *Matrix
				if opA == NoTrans {
					a = randMatrix(rng, n, k)
				} else {
					a = randMatrix(rng, k, n)
				}
				if opB == NoTrans {
					b = randMatrix(rng, k, p)
				} else {
					b = randMatrix(rng, p, k)
				}
				dst := New(n, p)
				MulInto(dst, a, opA, b, opB)
				want := naiveMul(applyOp(a, opA), applyOp(b, opB))
				if d := maxAbsDiff(dst, want); d > 1e-12 {
					t.Fatalf("MulInto(op %v,%v) %dx%dx%d deviates by %g", opA, opB, n, k, p, d)
				}
			}
		}
	}
}

func TestGemmIntoAlphaBetaAccumulation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randMatrix(rng, 7, 5)
	b := randMatrix(rng, 5, 9)
	c := randMatrix(rng, 7, 9)
	alpha, beta := complex(0.3, -1.1), complex(-0.7, 0.2)
	dst := c.Clone()
	GemmInto(dst, alpha, a, NoTrans, b, NoTrans, beta)
	prod := naiveMul(a, b)
	want := New(7, 9)
	for i := range want.Data {
		want.Data[i] = alpha*prod.Data[i] + beta*c.Data[i]
	}
	if d := maxAbsDiff(dst, want); d > 1e-12 {
		t.Fatalf("GemmInto alpha/beta deviates by %g", d)
	}
}

func TestGemmIntoAliasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GemmInto accepted an aliased output")
		}
	}()
	a := New(3, 3)
	GemmInto(a, 1, a, NoTrans, a, NoTrans, 0)
}

func TestTraceMulConjMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := propertySizes[rng.Intn(len(propertySizes))]
		m := propertySizes[rng.Intn(len(propertySizes))]
		a := randMatrix(rng, n, m)
		b := randMatrix(rng, n, m)
		got := TraceMulConj(a, b)
		want := complex128(0)
		if n > 0 && m > 0 {
			want = naiveMul(a, naiveConjT(b)).Trace()
		}
		if cmplx.Abs(got-want) > 1e-12 {
			t.Fatalf("TraceMulConj %dx%d: got %v want %v", n, m, got, want)
		}
	}
}

func TestDiagMulConjMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 20; trial++ {
		n := propertySizes[rng.Intn(len(propertySizes))]
		m := propertySizes[rng.Intn(len(propertySizes))]
		x := randMatrix(rng, n, m)
		g := randMatrix(rng, m, m)
		got := DiagMulConj(x, g)
		if len(got) != n {
			t.Fatalf("DiagMulConj returned %d entries for %d rows", len(got), n)
		}
		if n == 0 || m == 0 {
			continue
		}
		full := naiveMul(naiveMul(x, g), naiveConjT(x))
		for i := 0; i < n; i++ {
			if want := real(full.At(i, i)); math.Abs(got[i]-want) > 1e-12 {
				t.Fatalf("DiagMulConj %dx%d entry %d: got %v want %v", n, m, i, got[i], want)
			}
		}
	}
}

// TestMul3IntoBothAssociations pins each association order against the
// naive product: the rectangular shapes force (a·b)·c in one case and
// a·(b·c) in the other, and both must agree with the reference through
// the same GemmInto code path.
func TestMul3IntoBothAssociations(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ws := GetWorkspace()
	defer ws.Release()
	cases := []struct {
		name           string
		ra, ca, cb, cc int
	}{
		// left = ra·ca·cb + ra·cb·cc = 60+24 < right = ca·cb·cc + ra·ca·cc = 120+80
		{"left", 2, 10, 3, 4},
		// left = 4·3·10 + 4·10·2 = 200 > right = 3·10·2 + 4·3·2 = 84
		{"right", 4, 3, 10, 2},
	}
	for _, tc := range cases {
		a := randMatrix(rng, tc.ra, tc.ca)
		b := randMatrix(rng, tc.ca, tc.cb)
		c := randMatrix(rng, tc.cb, tc.cc)
		dst := New(tc.ra, tc.cc)
		Mul3Into(dst, a, NoTrans, b, NoTrans, c, NoTrans, ws)
		want := naiveMul(naiveMul(a, b), c)
		if d := maxAbsDiff(dst, want); d > 1e-12 {
			t.Fatalf("Mul3Into %s association deviates by %g", tc.name, d)
		}
		// The conjugated variant must agree with the materialized adjoints.
		dstC := New(tc.ca, tc.cb)
		Mul3Into(dstC, a, ConjTrans, a, NoTrans, b, NoTrans, ws)
		wantC := naiveMul(naiveMul(naiveConjT(a), a), b)
		if d := maxAbsDiff(dstC, wantC); d > 1e-12 {
			t.Fatalf("Mul3Into %s conjugated deviates by %g", tc.name, d)
		}
	}
}

func TestInverseIntoMatchesInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	ws := GetWorkspace()
	defer ws.Release()
	for _, n := range []int{1, 2, 5, 16, 33} {
		a := randMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+complex(float64(n), 0)) // diagonally dominant
		}
		dst := ws.Get(n, n)
		if err := InverseInto(dst, a, ws); err != nil {
			t.Fatalf("InverseInto n=%d: %v", n, err)
		}
		// The allocating route: factor a clone, solve against I.
		f, err := FactorInPlace(a.Clone(), make([]int, n))
		if err != nil {
			t.Fatalf("FactorInPlace n=%d: %v", n, err)
		}
		want := Identity(n)
		f.SolveInPlace(want)
		if d := maxAbsDiff(dst, want); d > 1e-12 {
			t.Fatalf("InverseInto n=%d deviates by %g", n, d)
		}
		ws.Put(dst)
	}
}

func TestInverseIntoRejectsBadShapes(t *testing.T) {
	ws := GetWorkspace()
	defer ws.Release()
	if err := InverseInto(New(2, 2), New(2, 3), ws); err == nil {
		t.Fatal("InverseInto accepted a non-square input")
	}
	if err := InverseInto(New(3, 3), New(2, 2), ws); err == nil {
		t.Fatal("InverseInto accepted mismatched output shape")
	}
	a := New(2, 2)
	if err := InverseInto(a, a, ws); err == nil {
		t.Fatal("InverseInto accepted aliased output")
	}
}

func TestWorkspaceReuseAndZeroing(t *testing.T) {
	ws := GetWorkspace()
	defer ws.Release()
	m := ws.Get(4, 4)
	m.Set(1, 2, 3)
	ws.Put(m)
	m2 := ws.Get(4, 4)
	for _, v := range m2.Data {
		if v != 0 {
			t.Fatal("workspace Get returned a dirty buffer")
		}
	}
	ws.Put(m2)
}

func TestWorkspaceDoubleReturnPanics(t *testing.T) {
	ws := GetWorkspace()
	defer ws.Release()
	m := ws.Get(3, 3)
	ws.Put(m)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put did not panic")
		}
	}()
	ws.Put(m)
}

func TestWorkspaceForeignReturnPanics(t *testing.T) {
	ws := GetWorkspace()
	defer ws.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("foreign Put did not panic")
		}
	}()
	ws.Put(New(3, 3))
}

func TestWorkspaceReleaseReclaimsOutstanding(t *testing.T) {
	ws := GetWorkspace()
	ws.Get(5, 5) // deliberately not Put back
	ws.Release() // must not panic; reclaims the straggler
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

func TestWorkspaceOtherWorkspacesMatrixPanics(t *testing.T) {
	a, b := GetWorkspace(), GetWorkspace()
	defer a.Release()
	defer b.Release()
	a.Get(2, 2) // a's out[0] and b's out[0] are both taken
	m := b.Get(3, 3)
	if !panics(func() { a.Put(m) }) {
		t.Fatal("Put of another workspace's matrix did not panic")
	}
	b.Put(m) // still b's to return
	if !panics(func() { a.PutInts(b.GetInts(4)) }) {
		t.Fatal("PutInts of another workspace's slice did not panic")
	}
}

func TestWorkspaceStructCopyPanics(t *testing.T) {
	ws := GetWorkspace()
	defer ws.Release()
	m := ws.Get(3, 3)
	c := *m
	if !panics(func() { ws.Put(&c) }) {
		t.Fatal("Put of a struct copy of a checked-out matrix did not panic")
	}
	ws.Put(m)
}

func TestWorkspaceIntsDoubleAndForeignReturnPanic(t *testing.T) {
	ws := GetWorkspace()
	defer ws.Release()
	s := ws.GetInts(5)
	ws.PutInts(s)
	if !panics(func() { ws.PutInts(s) }) {
		t.Fatal("double PutInts did not panic")
	}
	if !panics(func() { ws.PutInts(make([]int, 5, 8)) }) {
		t.Fatal("foreign PutInts did not panic")
	}
	if !panics(func() { ws.PutInts(nil) }) {
		t.Fatal("PutInts(nil) did not panic")
	}
}

// TestWorkspaceOwnershipModel drives two workspaces through 10,000 seeded
// random steps — Get, GetInts, Put and PutInts of a random buffer ever
// handed out (live here, live in the other workspace, returned, reclaimed
// by a Release, or a struct copy), and Release — against a reference
// ownership map kept here. A Put succeeds exactly when the map says the
// buffer is live in that workspace and panics otherwise; every Get is
// zeroed, correctly shaped and not already live.
func TestWorkspaceOwnershipModel(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	var wss [2]*Workspace
	for i := range wss {
		wss[i] = GetWorkspace()
	}
	defer func() {
		for _, ws := range wss {
			ws.Release()
		}
	}()
	// What is checked out, and of which workspace; an int slice is known
	// by its first element.
	live := map[*Matrix]int{}
	liveInts := map[*int]int{}
	var mats []*Matrix
	var ints [][]int
	for step := 0; step < 10000; step++ {
		w := rng.Intn(2)
		ws := wss[w]
		switch op := rng.Intn(20); {
		case op < 7:
			r, c := rng.Intn(9), rng.Intn(9)
			m := ws.Get(r, c)
			if _, ok := live[m]; ok {
				t.Fatalf("step %d: Get handed out a live matrix", step)
			}
			if m.Rows != r || m.Cols != c || len(m.Data) != r*c {
				t.Fatalf("step %d: Get(%d, %d) returned %dx%d with %d entries", step, r, c, m.Rows, m.Cols, len(m.Data))
			}
			for i, v := range m.Data {
				if v != 0 {
					t.Fatalf("step %d: Get returned a dirty buffer (entry %d = %v)", step, i, v)
				}
				m.Data[i] = complex(float64(step), 1)
			}
			live[m] = w
			mats = append(mats, m)
		case op < 9:
			s := ws.GetInts(rng.Intn(40))
			if _, ok := liveInts[&s[:1][0]]; ok {
				t.Fatalf("step %d: GetInts handed out a live slice", step)
			}
			liveInts[&s[:1][0]] = w
			ints = append(ints, s)
		case op < 15 && len(mats) > 0:
			m := mats[rng.Intn(len(mats))]
			o, ok := live[m]
			owned := ok && o == w
			if ok && rng.Intn(8) == 0 {
				c := *m // a copy is never live, whatever its original is
				m, owned = &c, false
			}
			if panicked := panics(func() { ws.Put(m) }); panicked == owned {
				t.Fatalf("step %d: Put of a matrix live here=%v: panicked=%v", step, owned, panicked)
			}
			if owned {
				delete(live, m)
			}
		case op < 18 && len(ints) > 0:
			s := ints[rng.Intn(len(ints))]
			w2, ok := liveInts[&s[:1][0]]
			owned := ok && w2 == w
			if panicked := panics(func() { ws.PutInts(s) }); panicked == owned {
				t.Fatalf("step %d: PutInts of a slice live here=%v: panicked=%v", step, owned, panicked)
			}
			if owned {
				delete(liveInts, &s[:1][0])
			}
		case op == 19:
			ws.Release()
			wss[w] = GetWorkspace()
			for m, o := range live {
				if o == w {
					delete(live, m)
				}
			}
			for p, o := range liveInts {
				if o == w {
					delete(liveInts, p)
				}
			}
		}
	}
}

// TestWorkspaceWarmGetPutAllocatesNothing: once a size class has a free
// buffer, a Get/Put pair of it allocates nothing — for matrices and pivot
// slices alike.
func TestWorkspaceWarmGetPutAllocatesNothing(t *testing.T) {
	ws := GetWorkspace()
	defer ws.Release()
	if a := testing.AllocsPerRun(100, func() { ws.Put(ws.Get(6, 6)) }); a != 0 {
		t.Errorf("warm Get/Put pair: %v allocations, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { ws.PutInts(ws.GetInts(14)) }); a != 0 {
		t.Errorf("warm GetInts/PutInts pair: %v allocations, want 0", a)
	}
}

// BenchmarkWorkspaceGetPut is the bookkeeping around one r-sized product:
// a Get/Put pair of a 6×6 block with three other blocks outstanding.
func BenchmarkWorkspaceGetPut(b *testing.B) {
	ws := GetWorkspace()
	defer ws.Release()
	for i := 0; i < 3; i++ {
		ws.Get(6, 6)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws.Put(ws.Get(6, 6))
	}
}
