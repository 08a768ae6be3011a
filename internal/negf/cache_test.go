package negf

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/lattice"
	"repro/internal/linalg"
	"repro/internal/perf"
	"repro/internal/sparse"
	"repro/internal/tb"
)

// chainLeads builds the leads of a uniform single-band chain whose every
// site sits at potential energy shift (a rigid contact shift, as a pinned
// bias produces).
func chainLeads(t *testing.T, hop, shift float64) *Leads {
	t.Helper()
	s, err := lattice.NewLinearChain(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	var pot []float64
	if shift != 0 {
		pot = make([]float64, 4)
		for i := range pot {
			pot[i] = shift
		}
	}
	h, err := tb.Assemble(s, tb.SingleBandChain(0, hop), tb.Options{Potential: pot})
	if err != nil {
		t.Fatal(err)
	}
	leads, err := LeadsFromDevice(h)
	if err != nil {
		t.Fatal(err)
	}
	return leads
}

// maxAbsDiffT is max over elements of max(|re|, |im|) of a − b.
func maxAbsDiffT(t *testing.T, a, b *linalg.Matrix) float64 {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	var mx float64
	for i, v := range a.Data {
		d := v - b.Data[i]
		mx = max(mx, math.Abs(real(d)), math.Abs(imag(d)))
	}
	return mx
}

// TestShiftInvariantSigma pins the physics of a biased contact: a
// flat-band contact rigidly shifted by qV satisfies Σ(z; V) = Σ(z − qV; 0)
// through the decimation, to rounding.
func TestShiftInvariantSigma(t *testing.T) {
	const hop, v = -1.0, 0.35
	base := chainLeads(t, hop, 0)
	shifted := chainLeads(t, hop, v)

	for _, e := range []float64{-1.2, 0.0, 0.7, 2.6} {
		z := complex(e, 1e-6)
		sLs, sRs, err := shifted.SelfEnergies(z)
		if err != nil {
			t.Fatalf("shifted E=%g: %v", e, err)
		}
		sL0, sR0, err := base.SelfEnergies(z - complex(v, 0))
		if err != nil {
			t.Fatalf("base E=%g: %v", e, err)
		}
		if d := maxAbsDiffT(t, sLs, sL0); d > 1e-12 {
			t.Fatalf("E=%g: |Σ_L(z;V) − Σ_L(z−qV;0)| = %g > 1e-12", e, d)
		}
		if d := maxAbsDiffT(t, sRs, sR0); d > 1e-12 {
			t.Fatalf("E=%g: |Σ_R(z;V) − Σ_R(z−qV;0)| = %g > 1e-12", e, d)
		}
	}
}

// TestDecimationCounterCountsKernelRuns: the process-wide
// sigma-decimations counter counts kernel runs, not lookups, and the
// uncached Leads.SelfEnergies counts them as a cache's miss does — one per
// energy where both contacts continue one cell, one per side where the
// right contact is lifted off the left — while a hit runs nothing.
func TestDecimationCounterCountsKernelRuns(t *testing.T) {
	ctr := perf.GetCounter("sigma-decimations")
	paired := chainLeads(t, -1, 0)
	split := shiftRight(chainLeads(t, -1, 0), 0.2)
	cache := NewSelfEnergyCache()
	z := complex(0.3, 1e-6)
	for _, tc := range []struct {
		name string
		get  func() error
		want int64
	}{
		{"uncached, paired", func() error { _, _, err := paired.SelfEnergies(z); return err }, 1},
		{"uncached, paired again", func() error { _, _, err := paired.SelfEnergies(z); return err }, 1},
		{"uncached, split", func() error { _, _, err := split.SelfEnergies(z); return err }, 2},
		{"cached miss", func() error { _, _, err := cache.SelfEnergies(paired, z); return err }, 1},
		{"cached hit", func() error { _, _, err := cache.SelfEnergies(paired, z); return err }, 0},
	} {
		before := ctr.Value()
		if err := tc.get(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := ctr.Value() - before; got != tc.want {
			t.Errorf("%s: sigma-decimations moved by %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestCacheCoalescing hammers one key from many goroutines (run it under
// -race): exactly one kernel run may happen — it serves both leads — and
// everyone shares its result.
func TestCacheCoalescing(t *testing.T) {
	leads := chainLeads(t, -1, 0)
	c := NewSelfEnergyCache()
	z := complex(0.3, 1e-6)
	const workers = 32

	var wg sync.WaitGroup
	start := make(chan struct{})
	sigLs := make([]*linalg.Matrix, workers)
	sigRs := make([]*linalg.Matrix, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			sigLs[i], sigRs[i], errs[i] = c.SelfEnergies(leads, z)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if sigLs[i] != sigLs[0] || sigRs[i] != sigRs[0] {
			t.Fatalf("worker %d got a different matrix than worker 0", i)
		}
	}
	st := c.Stats()
	if st.Decimations != 1 {
		t.Fatalf("%d decimations ran, want exactly 1 (one kernel run, both leads)", st.Decimations)
	}
	if st.Misses != 2 {
		t.Fatalf("%d misses, want 2", st.Misses)
	}
	if got := st.Hits + st.CoalescedWaits; got != 2*workers-2 {
		t.Fatalf("hits+coalesced = %d, want %d", got, 2*workers-2)
	}
}

// TestCacheFamilyVerification: the blocks are the identity. Leads whose
// blocks differ never share a record — each gets the Σ its own uncached
// Leads.SelfEnergies returns, bit for bit, whatever the cache saw first.
func TestCacheFamilyVerification(t *testing.T) {
	a := chainLeads(t, -1.0, 0)
	b := chainLeads(t, -1.3, 0) // different hopping
	c := NewSelfEnergyCache()
	z := complex(0.25, 1e-6)
	aL, aR, err := c.SelfEnergies(a, z)
	if err != nil {
		t.Fatal(err)
	}
	bL, bR, err := c.SelfEnergies(b, z)
	if err != nil {
		t.Fatal(err)
	}
	if aL == bL || aR == bR || c.Len() != 2 {
		t.Fatalf("leads with different hopping shared a record (%d records, want 2)", c.Len())
	}
	for name, tc := range map[string]struct {
		leads      *Leads
		gotL, gotR *linalg.Matrix
	}{"hop −1.0": {a, aL, aR}, "hop −1.3": {b, bL, bR}} {
		wantL, wantR, err := tc.leads.SelfEnergies(z)
		if err != nil {
			t.Fatal(err)
		}
		if !sparse.SameBits(tc.gotL, wantL) || !sparse.SameBits(tc.gotR, wantR) {
			t.Errorf("%s: cached Σ differs from its own uncached Σ", name)
		}
	}
}

// TestEqualBlocksShareFamily: distinct Leads values with bitwise-equal
// blocks are one contact and share one family; the two sides never collide.
func TestEqualBlocksShareFamily(t *testing.T) {
	a := chainLeads(t, -1, 0)
	b := chainLeads(t, -1, 0)
	c := NewSelfEnergyCache()
	z := complex(0.6, 1e-6)
	aL, aR, err := c.SelfEnergies(a, z)
	if err != nil {
		t.Fatal(err)
	}
	bL, bR, err := c.SelfEnergies(b, z)
	if err != nil {
		t.Fatal(err)
	}
	if aL != bL || aR != bR || len(c.families.blocks) != 1 {
		t.Fatalf("bitwise-identical leads did not share a family (%d registered)", len(c.families.blocks))
	}
	// For this symmetric chain Σ_L = Σ_R numerically, but the sides must
	// still be distinct matrices (projection formulas differ in general).
	if aL == aR {
		t.Fatal("left and right leads collided into one self-energy")
	}
	if d := math.Abs(real(aL.At(0, 0)) - real(aR.At(0, 0))); d > 1e-12 {
		t.Fatalf("symmetric chain: Σ_L and Σ_R differ by %g", d)
	}
}

// TestManyLeadsOneFamily (run it under -race): N goroutines each bring
// their own Leads value of equal blocks to one cache, over a few energies.
// Resolution is by blocks under one lock, so exactly one family registers
// and each energy is decimated once — no per-value identity to thrash.
func TestManyLeadsOneFamily(t *testing.T) {
	const workers = 16
	energies := []float64{-0.5, 0.1, 0.8}
	all := make([]*Leads, workers)
	for i := range all {
		all[i] = chainLeads(t, -1, 0)
	}
	c := NewSelfEnergyCache()
	got := make([][]*linalg.Matrix, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range all {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for _, e := range energies {
				sL, sR, err := c.SelfEnergies(all[i], complex(e, 1e-6))
				if err != nil {
					errs[i] = err
					return
				}
				got[i] = append(got[i], sL, sR)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range all {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		for j, m := range got[i] {
			if m != got[0][j] {
				t.Fatalf("goroutine %d, matrix %d: not the shared record", i, j)
			}
		}
	}
	if n := len(c.families.blocks); n != 1 {
		t.Fatalf("%d block families registered, want 1", n)
	}
	if st := c.Stats(); st.Decimations != int64(len(energies)) || c.Len() != len(energies) {
		t.Fatalf("stats %+v, %d records; want one kernel run per energy (%d)", st, c.Len(), len(energies))
	}
}

// TestLeadsMemoInvalidation: a Leads value remembers its last resolution
// only for the blocks it showed. Swapping a block pointer resolves again,
// to what a fresh value of the same fields gets.
func TestLeadsMemoInvalidation(t *testing.T) {
	z := complex(0.3, 1e-6)
	fresh := func(l *Leads) (*linalg.Matrix, *linalg.Matrix) {
		t.Helper()
		twin := &Leads{L00: l.L00, L01: l.L01, R00: l.R00, R01: l.R01}
		sL, sR, err := twin.SelfEnergies(z)
		if err != nil {
			t.Fatal(err)
		}
		return sL, sR
	}
	l := chainLeads(t, -1, 0)
	c := NewSelfEnergyCache()
	step := func(how string, families int) {
		t.Helper()
		for pass := 0; pass < 2; pass++ { // resolved, then from the memo
			gotL, gotR, err := c.SelfEnergies(l, z)
			if err != nil {
				t.Fatal(err)
			}
			wantL, wantR := fresh(l)
			if !sparse.SameBits(gotL, wantL) || !sparse.SameBits(gotR, wantR) {
				t.Fatalf("%s, pass %d: Σ is not that of the fields as they stand", how, pass)
			}
		}
		if n := len(c.families.blocks); n != families {
			t.Fatalf("%s: %d block families registered, want %d", how, n, families)
		}
	}
	step("as built", 1)

	// A stiffer right coupling is another contact.
	l.R01 = l.R01.Scale(1.25)
	step("R01 swapped", 2)

	// The coupling restored with the right contact lifted by 0.25 eV: the
	// lift is part of the contact, a third canon.
	l.R01 = l.L01
	l.R00 = l.R00.Clone()
	for i := 0; i < l.R00.Rows; i++ {
		l.R00.Data[i*l.R00.Rows+i] += 0.25
	}
	step("R00 lifted", 3)
}

// TestNonFiniteLeadRefused: a NaN or ±Inf anywhere in a contact's blocks is
// refused by name before anything registers, on the cached and the
// uncached path, first visit and every visit after; so is a non-Hermitian
// h00.
func TestNonFiniteLeadRefused(t *testing.T) {
	z := complex(0.3, 1e-6)
	for _, block := range []string{"L00", "L01", "R00", "R01"} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			l := chainLeads(t, -1, 0)
			field := map[string]**linalg.Matrix{"L00": &l.L00, "L01": &l.L01, "R00": &l.R00, "R01": &l.R01}[block]
			*field = (*field).Clone()
			(*field).Data[0] = complex(real((*field).Data[0]), bad)
			wantSide := map[byte]string{'L': "left", 'R': "right"}[block[0]]
			c := NewSelfEnergyCache()
			for visit := 0; visit < 2; visit++ {
				for how, call := range map[string]func() error{
					"cached":   func() error { _, _, err := c.SelfEnergies(l, z); return err },
					"uncached": func() error { _, _, err := l.SelfEnergies(z); return err },
				} {
					err := call()
					if err == nil || !strings.Contains(err.Error(), wantSide+" lead") || !strings.Contains(err.Error(), "non-finite") {
						t.Errorf("%v in %s, %s visit %d: err = %v, want a non-finite %s lead refused", bad, block, how, visit, err, wantSide)
					}
				}
			}
			if n := len(c.families.blocks) + len(l.own.blocks); n != 0 {
				t.Errorf("%v in %s: %d families registered by a refused lead", bad, block, n)
			}
		}
	}
	// The interior is eliminated through h00's eigenpairs, so an h00 off
	// its adjoint — here a complex on-site energy — is refused too.
	l := chainLeads(t, -1, 0)
	l.L00 = l.L00.Clone()
	l.L00.Data[0] += 0.1i
	if _, _, err := NewSelfEnergyCache().SelfEnergies(l, z); err == nil || !strings.Contains(err.Error(), "left lead's h00 is not Hermitian") {
		t.Errorf("complex on-site energy: err = %v, want the left lead refused as not Hermitian", err)
	}
}

// suiteLeads builds the contacts of every T1 device family.
func suiteLeads(t *testing.T) map[string]*Leads {
	t.Helper()
	out := make(map[string]*Leads)
	for _, d := range device.BenchmarkSuite() {
		built, err := d.Build()
		if err != nil {
			t.Fatal(err)
		}
		h, err := tb.Assemble(built.Structure, built.Material, built.Options)
		if err != nil {
			t.Fatal(err)
		}
		if out[d.Name], err = LeadsFromDevice(h); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// familyOf registers spec as block family 0 of a registry of its own.
func familyOf(t *testing.T, spec leadSpec) *blockFamily {
	t.Helper()
	fam, err := newFamily(0, spec)
	if err != nil {
		t.Fatal(err)
	}
	return fam
}

// denseTwin is fam running every energy on its layer's whole partition: the
// dense Sancho-Rubio recursion with S first, the reference the support-space
// kernel is held to. Same kernel and the same record, so it moves with it —
// it is a twin, not a fossil.
func denseTwin(fam *blockFamily) *blockFamily {
	d := *fam
	d.layer = fam.layer.Whole()
	return &d
}

// partitionOf returns what fam's layer eliminates, read off the canon alone:
// |S| = |R ∪ C| and the levels of the interior block h00[I,I], ascending —
// the poles the elimination divides by and the guard measures z against.
func partitionOf(t *testing.T, fam *blockFamily) (sup int, levels []float64) {
	t.Helper()
	s := sparse.Union(fam.rows, fam.cols)
	var in []int
	for o := 0; o < fam.h00.Rows; o++ {
		if !slices.Contains(s, o) {
			in = append(in, o)
		}
	}
	hII := linalg.New(len(in), len(in))
	sparse.Gather(hII, fam.h00, in, in)
	levels, err := linalg.EigHValues(hII)
	if err != nil {
		t.Fatal(err)
	}
	return len(s), levels
}

// naturalTwin is fam on the dense recursion in h00's own orbital order, no
// interior and S every orbital: the textbook Sancho-Rubio kernel, which
// shares no layout with the family's layer. It is TestDysonResidual's
// yardstick for how well a recursion stopped at surfaceTol can do at an
// energy.
func naturalTwin(t *testing.T, fam *blockFamily) *blockFamily {
	t.Helper()
	d := *fam
	var err error
	if d.layer, err = sparse.NewLayer(fam.h00, sparse.Range(0, fam.h00.Rows)); err != nil {
		t.Fatal(err)
	}
	d.posR, d.posC = fam.rows, fam.cols
	return &d
}

// dysonResidual is how far sigma, the block on side s's support, sits from
// satisfying its own defining equation, ‖Σ − h·(z − h00 − Σ)⁻¹·h†‖ in the
// max-abs norm over the whole layer, with h the coupling from the device's
// end layer into the lead — a check that reads nothing of how Σ was
// computed.
func dysonResidual(t *testing.T, fam *blockFamily, z complex128, sigma *linalg.Matrix, s side) float64 {
	t.Helper()
	full := embed(sigma, leadSpec{side: s, h01: fam.h01}.support(), fam.h00.Rows)
	return maxAbsDiffT(t, dysonImage(t, fam, z, full, s), full)
}

// dysonImage returns h·(z − h00 − Σ)⁻¹·h† on the whole layer, for side s's
// self-energy sigma embedded on the whole layer.
func dysonImage(t *testing.T, fam *blockFamily, z complex128, sigma *linalg.Matrix, s side) *linalg.Matrix {
	t.Helper()
	n := fam.h00.Rows
	open := linalg.New(n, n)
	linalg.ShiftedNegInto(open, fam.h00, z)
	open.AddScaled(sigma, -1)
	f, err := linalg.FactorInPlace(open, make([]int, n))
	if err != nil {
		t.Fatalf("z − h00 − Σ at z=%v: %v", z, err)
	}
	h, hd := fam.h01, fam.h01.ConjTranspose()
	if s == left {
		h, hd = hd, h
	}
	gh := hd.Clone()
	f.SolveInPlace(gh)
	return h.Mul(gh)
}

// TestDysonResidual holds the kernel to the equation it solves rather than
// to an earlier version of itself: over every T1 device family and 200
// energies each — a uniform sweep through bands and gaps plus the k = 0 and
// k = π band edges of the lead itself — both self-energies satisfy
// Σ = h·(z − h00 − Σ)⁻¹·h† to 1e-9·max(1, ‖Σ‖). At a band edge, and at the
// few sweep energies that fall within a meV of one, Σ is a square-root
// singularity and no recursion stopped at surfaceTol does better than ~1e-4
// there; those energies must instead score no worse than 4× the residual of
// the textbook dense recursion (naturalTwin) at the same energy. The two families with
// blocks beyond 40 orbitals get 200·(40/n)³ energies, the same second as
// the others.
func TestDysonResidual(t *testing.T) {
	const eta = 1e-6
	for name, leads := range suiteLeads(t) {
		n := leads.R00.Rows
		budget := 200
		if n > 40 {
			budget = 200 * 40 * 40 * 40 / (n * n * n)
		}
		if testing.Short() {
			budget = (budget + 4) / 5
		}
		energies := make([]float64, 0, budget)
		for i, nu := 0, budget*9/10; i < nu; i++ {
			energies = append(energies, -3+11*(float64(i)+0.37)/float64(nu))
		}
		// Band edges: the extrema of the lead's bands sit at k = 0 and π.
		for _, sign := range []complex128{1, -1} {
			hk := leads.R00.Clone()
			hk.AddScaled(leads.R01, sign)
			hk.AddScaled(leads.R01.ConjTranspose(), sign)
			eig, err := linalg.EigH(hk)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range eig.Values {
				if e > -3 && e < 8 && len(energies) < cap(energies) {
					energies = append(energies, e)
				}
			}
		}
		fam := familyOf(t, leads.spec(left))
		dense := naturalTwin(t, fam)
		var worst, worstHard float64
		var hard int
		for _, e := range energies {
			z := complex(e, eta)
			got, err := fam.selfEnergies(z, bothSides)
			if err != nil {
				t.Fatalf("%s E=%.15g: %v", name, e, err)
			}
			for _, s := range [2]side{left, right} {
				res := dysonResidual(t, fam, z, got[s], s)
				if res <= 1e-9*math.Max(1, maxAbs(got[s])) {
					worst = math.Max(worst, res)
					continue
				}
				want, err := dense.selfEnergies(z, 1<<s)
				if err != nil {
					t.Fatalf("%s E=%.15g, empty interior: %v", name, e, err)
				}
				hard++
				worstHard = math.Max(worstHard, res)
				if ref := dysonResidual(t, fam, z, want[s], s); res > 4*ref {
					t.Errorf("%s E=%.15g %s: Dyson residual %.3g, the dense recursion scores %.3g", name, e, sideNames[s], res, ref)
				}
			}
		}
		t.Logf("%-14s n=%-3d s=%-3d %d energies: max residual %.3g; %d ill-conditioned (edge) self-energies, max %.3g",
			name, n, len(sparse.Union(fam.rows, fam.cols)), len(energies), worst, hard, worstHard)
	}
}

// shiftRight returns leads whose right contact sits at potential energy v:
// the same blocks with v on R00's diagonal.
func shiftRight(l *Leads, v float64) *Leads {
	out := &Leads{L00: l.L00, L01: l.L01, R00: l.R00.Clone(), R01: l.R01}
	for i := 0; i < out.R00.Rows; i++ {
		out.R00.Data[i*out.R00.Rows+i] += complex(v, 0)
	}
	return out
}

// TestMirrorPurity is the contract of the paired kernel: the Σ_L and Σ_R
// of a block family are a pure function of (canon, z). They come out
// bit-identical from a paired miss, from two one-sided finishes of the
// kernel, uncached, and from 32 goroutines bringing the leads or a twin of
// equal blocks to one cache (run it under -race). Along the way: one kernel
// run per block family, and two lookups per SelfEnergies call. Ends a few
// ulps apart are two one-sided families and are held to the same.
func TestMirrorPurity(t *testing.T) {
	suite := suiteLeads(t)
	z := complex(0.5, 1e-6)
	for name, tc := range map[string]struct {
		leads    *Leads
		families int
	}{
		"AGNR-7": {suite["AGNR-7"], 1}, "SiNW-sp3s*": {suite["SiNW-sp3s*"], 1}, // bit-identical ends
		"SiNW-sp3s*, ends a few ulps apart": {ulpsApart(suite["SiNW-sp3s*"]), 2},
	} {
		flat := tc.leads
		twin := &Leads{L00: flat.L00.Clone(), L01: flat.L01.Clone(), R00: flat.R00.Clone(), R01: flat.R01.Clone()}

		wantL, wantR, err := NewSelfEnergyCache().SelfEnergies(flat, z)
		if err != nil {
			t.Fatal(err)
		}
		check := func(how string, gotL, gotR *linalg.Matrix, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", name, how, err)
			}
			if gotL != nil && !sparse.SameBits(gotL, wantL) {
				t.Errorf("%s %s: Σ_L differs from the paired miss by %g", name, how, maxAbsDiffT(t, gotL, wantL))
			}
			if gotR != nil && !sparse.SameBits(gotR, wantR) {
				t.Errorf("%s %s: Σ_R differs from the paired miss by %g", name, how, maxAbsDiffT(t, gotR, wantR))
			}
		}

		gotL, gotR, err := flat.SelfEnergies(z)
		check("uncached", gotL, gotR, err)

		oneL, err := familyOf(t, flat.spec(left)).selfEnergies(z, 1<<left)
		check("left finished alone", oneL[left], nil, err)
		oneR, err := familyOf(t, flat.spec(right)).selfEnergies(z, 1<<right)
		check("right finished alone", nil, oneR[right], err)

		// Everything at once.
		shared := NewSelfEnergyCache()
		const workers = 32
		var wg sync.WaitGroup
		start := make(chan struct{})
		type result struct {
			l, r *linalg.Matrix
			err  error
		}
		results := make([]result, workers)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				r := &results[i]
				leads := flat
				if i%2 == 1 {
					leads = twin
				}
				r.l, r.r, r.err = shared.SelfEnergies(leads, z)
			}(i)
		}
		close(start)
		wg.Wait()
		for i, r := range results {
			check(fmt.Sprintf("goroutine %d of %d", i, workers), r.l, r.r, r.err)
		}
		st := shared.Stats()
		if n := shared.Len(); st.Decimations != int64(n) || n != tc.families || len(shared.families.blocks) != tc.families {
			t.Errorf("%s: %d kernel runs for %d records of %d families, want %d of each", name, st.Decimations, n, len(shared.families.blocks), tc.families)
		}
		if got := st.Hits + st.Misses + st.CoalescedWaits; got != 2*workers {
			t.Errorf("%s: hits+misses+coalesced = %d after %d calls, want %d", name, got, workers, 2*workers)
		}
	}
}

// TestMirrorAdoption pins who pairs: a contact is its blocks, bit for bit.
// The two ends of one assembled wire are the same bits (the lattice's
// bonds are periodic bit for bit): one family, one kernel run per energy.
// Ends a few ulps apart — built here by hand on R00's diagonal — are two
// contacts with two families and two runs, as is a right lead 1e-6 off the
// left one.
func TestMirrorAdoption(t *testing.T) {
	wire := suiteLeads(t)["SiNW-sp3s*"]
	if !familyOf(t, wire.spec(left)).matches(wire.spec(right)) {
		t.Fatalf("sinw's assembled ends differ by %g, want the same bits", maxAbsDiffT(t, wire.L00, wire.R00))
	}
	ulps := ulpsApart(wire)
	if d := maxAbsDiffT(t, ulps.R00, wire.L00); d == 0 || d > 1e-12 {
		t.Fatalf("the hand-built ends differ by %g; the arm wants rounding, neither bitwise equality nor a real difference", d)
	}
	off := &Leads{L00: wire.L00, L01: wire.L01, R00: wire.R00.Clone(), R01: wire.R01}
	off.R00.Data[1] += 1e-6
	off.R00.Data[off.R00.Rows] += 1e-6
	z := complex(0.5, 1e-6)
	for name, tc := range map[string]struct {
		leads *Leads
		runs  int64
	}{"ends bitwise equal": {wire, 1}, "ends a few ulps apart": {ulps, 2}, "ends 1e-6 apart": {off, 2}} {
		c := NewSelfEnergyCache()
		cachedL, cachedR, err := c.SelfEnergies(tc.leads, z)
		if err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Decimations != tc.runs || st.Misses != 2 {
			t.Errorf("%s: stats %+v, want 2 misses served by %d kernel runs", name, st, tc.runs)
		}
		if n := len(c.families.blocks); int64(n) != tc.runs {
			t.Errorf("%s: %d block families, want %d", name, n, tc.runs)
		}
		// The uncached path applies the same rule to the same blocks.
		plainL, plainR, err := tc.leads.SelfEnergies(z)
		if err != nil {
			t.Fatal(err)
		}
		if !sparse.SameBits(cachedL, plainL) || !sparse.SameBits(cachedR, plainR) {
			t.Errorf("%s: cached and uncached self-energies differ", name)
		}
	}
}

// ulpsApart returns l with its right contact's diagonal moved by one to
// three ulps per entry: two ends of one cell apart by rounding alone.
func ulpsApart(l *Leads) *Leads {
	out := &Leads{L00: l.L00, L01: l.L01, R00: l.R00.Clone(), R01: l.R01}
	n := out.R00.Rows
	for i := 0; i < n; i++ {
		v := real(out.R00.Data[i*n+i])
		for k := 0; k <= i%3; k++ {
			v = math.Nextafter(v, math.Inf(1))
		}
		out.R00.Data[i*n+i] = complex(v, 0)
	}
	return out
}

// TestSupportMismatchIsOwnFamily: a right lead one entry off the left
// one's blocks — coupling one more orbital, an entry of 1e-12 where the
// left coupling holds 0 — is a contact of its own: a family of its own, a
// Σ_R on its own support, one row larger than the left family's, and the
// same bits cached and uncached.
func TestSupportMismatchIsOwnFamily(t *testing.T) {
	wire := suiteLeads(t)["SiNW-sp3s*"]
	out := sparse.RowSupport(wire.R01)
	row := 0
	for slices.Contains(out, row) {
		row++
	}
	r01 := wire.R01.Clone()
	r01.Data[row*r01.Cols] = 1e-12
	l := &Leads{L00: wire.L00, L01: wire.L01, R00: wire.R00, R01: r01}
	_, supR := l.Supports()
	if len(supR) != len(out)+1 || !slices.Contains(supR, row) {
		t.Fatalf("the lead's support %v does not add orbital %d to %v", supR, row, out)
	}
	z := complex(0.5, 1e-6)
	c := NewSelfEnergyCache()
	cachedL, cachedR, err := c.SelfEnergies(l, z)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.families.blocks); n != 2 {
		t.Errorf("%d block families, want 2: the right lead is its own", n)
	}
	if cachedR.Rows != len(supR) || cachedR.Cols != len(supR) {
		t.Errorf("Σ_R is %d×%d, want its own support's %d×%d", cachedR.Rows, cachedR.Cols, len(supR), len(supR))
	}
	plainL, plainR, err := l.SelfEnergies(z)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.SameBits(cachedL, plainL) || !sparse.SameBits(cachedR, plainR) {
		t.Error("cached and uncached self-energies differ")
	}
}
