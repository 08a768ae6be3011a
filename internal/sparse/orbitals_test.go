package sparse

import "repro/internal/linalg"

// Orbitals returns layer i's block x of a solution of A on every orbital of
// the layer, in the layer's own order, as ws scratch: the kept rows moved
// back, the interior recovered as x_I = V·diag(d)·W·x_S with V the
// eigenvectors of H_ii[I,I] (the bits NewLayer computed W from). The solvers
// never recover an orbital — they read layer sums off [x; Interior(x)] — so
// this is the tests' oracle for the interior and for that identity, and it
// forms its products itself rather than through Interior.
func (r *Reduced) Orbitals(i int, x *linalg.Matrix, ws *linalg.Workspace) *linalg.Matrix {
	e := r.recs[r.sys.rec[i]]
	p, k := e.p, x.Cols
	out := ws.Get(r.sys.sizes[i], k)
	for q, o := range p.keep {
		copy(out.Data[o*k:(o+1)*k], x.Data[q*k:(q+1)*k])
	}
	hII := linalg.New(len(p.in), len(p.in))
	Gather(hII, p.h, p.in, p.in)
	eig, err := linalg.EigHSetup(hII)
	if err != nil {
		panic(err) // NewLayer decomposed these bits already
	}
	y := ws.Get(len(p.in), k)
	linalg.GemmInto(y, 1, &p.w, linalg.NoTrans, x, linalg.NoTrans, 0)
	linalg.ScaleRowsInto(y, e.d.Data, y)
	xi := ws.Get(len(p.in), k)
	linalg.GemmInto(xi, 1, eig.Vectors, linalg.NoTrans, y, linalg.NoTrans, 0)
	for q, o := range p.in {
		copy(out.Data[o*k:(o+1)*k], xi.Data[q*k:(q+1)*k])
	}
	ws.Put(xi)
	ws.Put(y)
	return out
}
