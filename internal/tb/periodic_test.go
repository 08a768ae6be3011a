package tb_test

import (
	"testing"

	"repro/internal/device"
	"repro/internal/lattice"
	"repro/internal/sparse"
	"repro/internal/tb"
)

// TestLayersBitwisePeriodic holds the lattice's canonical bonds to what they
// are for: every layer block of a flat device is layer 0's bit for bit, so
// the reduced open system builds one record per energy, and layer 0's bonds
// are the searched vectors themselves, so both leads keep their bits. It
// covers every registry preset, utb at Ky ≠ 0 (wrapped bonds, Bloch-phased
// complex blocks) and sinw strained by 1 % with Harrison scaling.
func TestLayersBitwisePeriodic(t *testing.T) {
	type tcase struct {
		label, name string
		strain      float64
		opt         func(*tb.Options)
	}
	var cases []tcase
	for _, name := range device.Names() {
		cases = append(cases, tcase{label: name, name: name})
	}
	cases = append(cases,
		tcase{label: "utb at Ky = 0.7/nm", name: "utb", opt: func(o *tb.Options) { o.Ky = 0.7 }},
		tcase{label: "sinw strained 1 %, η = 2", name: "sinw", strain: 0.01, opt: func(o *tb.Options) { o.HarrisonExponent = 2 }},
	)
	for _, tc := range cases {
		d, _ := device.Lookup(tc.name)
		b, err := d.Build()
		if err != nil {
			t.Fatal(err)
		}
		s := b.Structure
		if tc.strain != 0 {
			if err := s.ApplyStrain(tc.strain, tc.strain, tc.strain); err != nil {
				t.Fatal(err)
			}
		} else {
			checkSearchedBonds(t, tc.label, s)
		}
		opt := b.Options
		if tc.opt != nil {
			tc.opt(&opt)
		}
		h, err := tb.Assemble(s, b.Material, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < h.Layers(); i++ {
			if !sparse.SameBits(h.Diag[i], h.Diag[0]) {
				t.Errorf("%s: Diag[%d] differs from Diag[0]", tc.label, i)
			}
			if i < h.Layers()-1 && (!sparse.SameBits(h.Upper[i], h.Upper[0]) || !sparse.SameBits(h.Lower[i], h.Lower[0])) {
				t.Errorf("%s: Upper or Lower[%d] differs from layer 0's", tc.label, i)
			}
		}
		nl := h.Layers()
		red, err := sparse.NewReducedSystem(h, sparse.ColumnSupport(h.Upper[0]), sparse.RowSupport(h.Upper[nl-2]))
		if err != nil {
			t.Fatal(err)
		}
		if got := red.Records(); got != 1 {
			t.Errorf("%s: reduced system holds %d records for %d layers, want 1", tc.label, got, nl)
		}
	}
}

// checkSearchedBonds asserts that layer 0's bonds are exactly
// Pos_target − Pos_source, the source moved by the periods it wraps.
func checkSearchedBonds(t *testing.T, name string, s *lattice.Structure) {
	t.Helper()
	for _, i := range s.LayerAtoms[0] {
		for _, nb := range s.Neighbors[i] {
			p := s.Atoms[i].Pos
			p.Y += float64(nb.WrapY) * s.PeriodY
			if want := s.Atoms[nb.Index].Pos.Sub(p); nb.Delta != want {
				t.Errorf("%s: layer-0 bond %d→%d is %v, positions give %v", name, i, nb.Index, nb.Delta, want)
			}
		}
	}
}
