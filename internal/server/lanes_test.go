package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"repro/internal/linalg"
	"repro/internal/negf"
	"repro/internal/sparse"
	"repro/internal/spec"
)

// TestLaneCountersOnMetrics: a wave-function transmission job on AGNR-7
// runs its energies in lane groups, and /metrics shows both lane counters
// — lane-groups, one per group solved in lockstep, and lanes-solo, one per
// energy of a group solved alone at take. The grid's first energy sits on
// a level of a layer's interior, where the guard keeps that layer whole,
// so the first group solves it solo and the other three in lanes. The
// lane path is forced on, so the purego build runs it on the scalar loops.
func TestLaneCountersOnMetrics(t *testing.T) {
	defer func(old bool) { negf.LaneGroups = old }(negf.LaneGroups)
	negf.LaneGroups = true
	s := spec.Default()
	s.Device.CellsX = 6
	s.Grid.NE, s.Grid.NK = 4, 1
	s.Grid.EMin = interiorLevel(t, s)
	s.Grid.EMax = s.Grid.EMin + 0.03

	m := newTestManager(t, t.TempDir(), nil)
	j, _, err := m.Submit(s, "lanes")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st != StateDone {
		t.Fatalf("job landed %s (%s)", st, j.view(true).Error)
	}
	ts := httptest.NewServer((&API{M: m}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for name, want := range map[string]int64{"lane-groups": 1, "lanes-solo": 1} {
		re := regexp.MustCompile(`omend_counter_total\{name="` + name + `"\} (\d+)`)
		got := re.FindSubmatch(metrics)
		if got == nil {
			t.Fatalf("/metrics has no %s counter:\n%s", name, metrics)
		}
		if v, _ := strconv.ParseInt(string(got[1]), 10, 64); v != want {
			t.Errorf("%s = %d, want %d", name, v, want)
		}
	}
}

// interiorLevel returns the middle eigenvalue of a middle layer's interior
// H_ii[I,I] of the spec's device: an energy whose guard keeps that layer
// whole.
func interiorLevel(t *testing.T, s spec.RunSpec) float64 {
	t.Helper()
	b, err := spec.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	h, err := b.Sim.Hamiltonian(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	i := h.Layers() / 2
	sup := sparse.Union(sparse.ColumnSupport(h.Upper[i-1]), sparse.RowSupport(h.Upper[i]))
	var in []int
	for o := 0; o < h.LayerSize(i); o++ {
		if !slices.Contains(sup, o) {
			in = append(in, o)
		}
	}
	blk := linalg.New(len(in), len(in))
	sparse.Gather(blk, h.Diag[i], in, in)
	vals, err := linalg.EigHValues(blk)
	if err != nil || len(vals) == 0 {
		t.Fatalf("layer %d has no interior levels (%v)", i, err)
	}
	return vals[len(vals)/2]
}
