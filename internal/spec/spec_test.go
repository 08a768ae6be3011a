package spec

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
)

var update = flag.Bool("update", false, "rewrite the golden spec files")

// dumpString renders a spec exactly the way the CLIs' -dump-spec does:
// canonical indented JSON followed by the four content hashes. The
// golden files pin this format — `omen -dump-spec` output is checked
// against one of them in `make check`.
func dumpString(t *testing.T, s RunSpec) string {
	t.Helper()
	b, err := s.CanonicalIndent()
	if err != nil {
		t.Fatalf("CanonicalIndent: %v", err)
	}
	return fmt.Sprintf("%s\n# device-hash\t%s\n# grid-hash\t%s\n# solver-hash\t%s\n# spec-hash\t%s\n",
		b, s.DeviceHash(), s.GridHash(), s.SolverHash(), s.SpecHash())
}

// TestGoldenSpecs pins the canonical encoding and all four content
// hashes of the default spec for every built-in device preset. Any drift in field order, JSON
// tags, defaults, or hash inputs shows up as a golden diff — which is
// the point: a silent encoding change would silently re-key every
// content-addressed artifact. Regenerate deliberately with
// `go test ./internal/spec -run Golden -update`.
func TestGoldenSpecs(t *testing.T) {
	cases := make(map[string]RunSpec)
	for _, name := range device.Names() {
		s := Default()
		s.Device.Name = name
		cases[name] = s
	}
	for name, s := range cases {
		t.Run(name, func(t *testing.T) {
			if err := s.Validate(); err != nil {
				t.Fatalf("golden spec invalid: %v", err)
			}
			got := dumpString(t, s)
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("spec for %s drifted from golden %s:\n got:\n%s\nwant:\n%s", name, path, got, want)
			}
		})
	}
}

// fullyNonDefault returns a spec with every leaf field away from its
// default, so a round-trip dropping any one of them cannot pass.
func fullyNonDefault() RunSpec {
	return RunSpec{
		Version: Version,
		Mode:    ModeIV,
		Device:  DeviceSpec{Name: "utb", CellsX: 12, CellsY: 2, CellsZ: 3},
		Grid: GridSpec{
			EMin: -1.5, EMax: 2.5, NE: 77, NK: 5,
			VDrain: 0.3, VGMin: -0.2, VGMax: 0.8, NVG: 9,
		},
		Solver: SolverSpec{Formalism: "negf", Domains: 4},
		Resilience: ResilienceSpec{
			Checkpoint: "x.journal", Resume: true, MaxRetries: 3,
			TaskTimeout: Duration(45 * time.Second), Quarantine: true,
			FaultRate: 0.25, FaultSeed: 99,
		},
		Exec: ExecSpec{
			Workers: 7, LeaseTimeout: Duration(90 * time.Second),
			RejoinWindow: Duration(2 * time.Minute), DrainTimeout: Duration(20 * time.Second),
			Priority: "high", Shards: 2, WireFormat: "binary",
		},
	}
}

// TestRoundTrip is the encode/decode property: Parse(Canonical(s)) == s,
// for the defaults, a fully non-default spec, and every device preset.
// RunSpec is a comparable value type, so == is exact field equality.
func TestRoundTrip(t *testing.T) {
	specs := []RunSpec{Default(), fullyNonDefault()}
	for _, name := range device.Names() {
		s := Default()
		s.Device.Name = name
		specs = append(specs, s)
	}
	for _, s := range specs {
		b, err := s.Canonical()
		if err != nil {
			t.Fatalf("Canonical: %v", err)
		}
		got, err := Parse(b)
		if err != nil {
			t.Fatalf("Parse(Canonical(%s)): %v", b, err)
		}
		if got != s {
			t.Errorf("round trip changed the spec:\n in: %+v\nout: %+v", s, got)
		}
		// The indented form must parse back identically too (-dump-spec
		// output is advertised as a valid -spec input).
		bi, err := s.CanonicalIndent()
		if err != nil {
			t.Fatalf("CanonicalIndent: %v", err)
		}
		got, err = Parse(bi)
		if err != nil {
			t.Fatalf("Parse(CanonicalIndent): %v", err)
		}
		if got != s {
			t.Errorf("indented round trip changed the spec:\n in: %+v\nout: %+v", s, got)
		}
	}
}

// TestParseLayersOverDefaults: a partial spec file inherits every
// unmentioned default, and unknown keys are rejected loudly.
func TestParseLayersOverDefaults(t *testing.T) {
	s, err := Parse([]byte(`{"device":{"name":"sinw"},"grid":{"nE":333}}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Device.Name != "sinw" || s.Grid.NE != 333 {
		t.Errorf("explicit fields lost: %+v", s)
	}
	want := Default()
	want.Device.Name = "sinw"
	want.Grid.NE = 333
	if s != want {
		t.Errorf("defaults not inherited:\n got %+v\nwant %+v", s, want)
	}

	if _, err := Parse([]byte(`{"devcie":{"name":"sinw"}}`)); err == nil {
		t.Error("Parse accepted a typoed key — silent flag drift is back")
	}
}

// TestRemovedSolveBatchField is the removed-field contract, one row per
// field a spec no longer has: exec.solveBatch went with the batched
// solvers, solver.seedRefine with neighbour-seeded refinement,
// solver.sigmaCacheCap moved to exec, and exec.sigmaCacheCap went with the
// σ-cache's bound (its row runs as sigmaCacheCap#01). A spec handed to
// Parse — a -spec file, a POST body — that still sets one is refused by
// name, never silently ignored. A spec already stored with one (journal
// headers, omend store entries) is re-read with plain json.Unmarshal and
// still loads as the spec without it; whether it hashes as filed depends
// on whether the field sat in a hashed section. solveBatch and
// exec.sigmaCacheCap never did, so those artefacts stay addressable. The
// two solver fields did: the hash moved with them, so an artefact that
// carries either is filed under a name this build never computes —
// -resume reports a spec-hash mismatch and omend's store skips the file
// (TestStoreNeverWritesToJournals) instead of adopting it.
func TestRemovedSolveBatchField(t *testing.T) {
	want := Default()
	want.Device.Name = "sinw"
	want.Exec.Workers = 3
	canon, err := want.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	// The SpecHash the last build that had the two solver fields computed
	// for this spec (its sinw golden): the name its artefacts are filed under.
	const filedUnder = "2a23afbfbd2387336f1e5e9e09cb27608c7b52db7abcedaf9526ef31f04b9bc2"
	for _, tc := range []struct {
		field, body   string // the field, and a Parse input that sets it
		anchor, plant string // where a stored spec carried it
		hashed        bool   // it sat in a hashed section
	}{
		{"solveBatch", `{"device":{"name":"sinw"},"exec":{"solveBatch":8}}`,
			`"workers":3,`, `"workers":3,"solveBatch":8,`, false},
		{"seedRefine", `{"device":{"name":"sinw"},"solver":{"seedRefine":0.01}}`,
			`"domains":1`, `"domains":1,"seedRefine":0`, true},
		{"sigmaCacheCap", `{"device":{"name":"sinw"},"solver":{"sigmaCacheCap":128}}`,
			`"domains":1`, `"domains":1,"sigmaCacheCap":4096`, true},
		{"sigmaCacheCap", `{"device":{"name":"sinw"},"exec":{"sigmaCacheCap":128}}`,
			`"workers":3,`, `"workers":3,"sigmaCacheCap":4096,`, false},
	} {
		t.Run(tc.field, func(t *testing.T) {
			if _, err := Parse([]byte(tc.body)); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("Parse of %s returned %v, want an error naming %s", tc.body, err, tc.field)
			}
			stored := strings.Replace(string(canon), tc.anchor, tc.plant, 1)
			if stored == string(canon) {
				t.Fatalf("could not plant %s in %s", tc.field, canon)
			}
			var got RunSpec
			if err := json.Unmarshal([]byte(stored), &got); err != nil {
				t.Fatalf("stored spec with %s no longer loads: %v", tc.field, err)
			}
			if got != want {
				t.Errorf("stored spec loaded as %+v, want %+v", got, want)
			}
			if got.SpecHash() != want.SpecHash() || got.DeviceHash() != want.DeviceHash() ||
				got.GridHash() != want.GridHash() || got.SolverHash() != want.SolverHash() {
				t.Errorf("a stored spec carrying %s hashes differently from the same spec without it", tc.field)
			}
			if tc.hashed && got.SpecHash() == filedUnder {
				t.Errorf("a stored spec carrying %s still hashes to the name it was filed under; its artefacts would be adopted", tc.field)
			}
		})
	}
}

// TestHashSensitivity perturbs every leaf field of RunSpec and checks
// the hash contract: result-determining fields (version, mode, device,
// grid, solver) change SpecHash and exactly their own section hash;
// resilience and exec fields change no hash at all (the engine's
// determinism makes observables independent of them).
func TestHashSensitivity(t *testing.T) {
	base := fullyNonDefault()
	muts := []struct {
		field   string
		section string // "device", "grid", "solver", or "" (top-level / unhashed)
		hashed  bool
		mut     func(*RunSpec)
	}{
		{"Version", "", true, func(s *RunSpec) { s.Version++ }},
		{"Mode", "", true, func(s *RunSpec) { s.Mode = ModeStats }},

		{"Device.Name", "device", true, func(s *RunSpec) { s.Device.Name = "chain" }},
		{"Device.CellsX", "device", true, func(s *RunSpec) { s.Device.CellsX++ }},
		{"Device.CellsY", "device", true, func(s *RunSpec) { s.Device.CellsY++ }},
		{"Device.CellsZ", "device", true, func(s *RunSpec) { s.Device.CellsZ++ }},

		{"Grid.EMin", "grid", true, func(s *RunSpec) { s.Grid.EMin -= 0.1 }},
		{"Grid.EMax", "grid", true, func(s *RunSpec) { s.Grid.EMax += 0.1 }},
		{"Grid.NE", "grid", true, func(s *RunSpec) { s.Grid.NE++ }},
		{"Grid.NK", "grid", true, func(s *RunSpec) { s.Grid.NK++ }},
		{"Grid.VDrain", "grid", true, func(s *RunSpec) { s.Grid.VDrain += 0.1 }},
		{"Grid.VGMin", "grid", true, func(s *RunSpec) { s.Grid.VGMin -= 0.1 }},
		{"Grid.VGMax", "grid", true, func(s *RunSpec) { s.Grid.VGMax += 0.1 }},
		{"Grid.NVG", "grid", true, func(s *RunSpec) { s.Grid.NVG++ }},

		{"Solver.Formalism", "solver", true, func(s *RunSpec) { s.Solver.Formalism = "wf" }},
		{"Solver.Domains", "solver", true, func(s *RunSpec) { s.Solver.Domains++ }},

		{"Resilience.Checkpoint", "", false, func(s *RunSpec) { s.Resilience.Checkpoint = "y.journal" }},
		{"Resilience.Resume", "", false, func(s *RunSpec) { s.Resilience.Resume = !s.Resilience.Resume }},
		{"Resilience.MaxRetries", "", false, func(s *RunSpec) { s.Resilience.MaxRetries++ }},
		{"Resilience.TaskTimeout", "", false, func(s *RunSpec) { s.Resilience.TaskTimeout += Duration(time.Second) }},
		{"Resilience.Quarantine", "", false, func(s *RunSpec) { s.Resilience.Quarantine = !s.Resilience.Quarantine }},
		{"Resilience.FaultRate", "", false, func(s *RunSpec) { s.Resilience.FaultRate += 0.1 }},
		{"Resilience.FaultSeed", "", false, func(s *RunSpec) { s.Resilience.FaultSeed++ }},

		{"Exec.Workers", "", false, func(s *RunSpec) { s.Exec.Workers++ }},
		{"Exec.LeaseTimeout", "", false, func(s *RunSpec) { s.Exec.LeaseTimeout += Duration(time.Second) }},
		{"Exec.RejoinWindow", "", false, func(s *RunSpec) { s.Exec.RejoinWindow += Duration(time.Second) }},
		{"Exec.DrainTimeout", "", false, func(s *RunSpec) { s.Exec.DrainTimeout += Duration(time.Second) }},
		{"Exec.Priority", "", false, func(s *RunSpec) { s.Exec.Priority = "low" }},
		{"Exec.Shards", "", false, func(s *RunSpec) { s.Exec.Shards = 4 }},
		{"Exec.WireFormat", "", false, func(s *RunSpec) { s.Exec.WireFormat = "json" }},
	}

	for _, m := range muts {
		t.Run(m.field, func(t *testing.T) {
			s := base
			m.mut(&s)
			if s == base {
				t.Fatal("mutation did not change the spec — the table entry tests nothing")
			}
			if changed := s.SpecHash() != base.SpecHash(); changed != m.hashed {
				t.Errorf("SpecHash changed=%v, want %v", changed, m.hashed)
			}
			if changed := s.DeviceHash() != base.DeviceHash(); changed != (m.section == "device") {
				t.Errorf("DeviceHash changed=%v, want %v", changed, m.section == "device")
			}
			if changed := s.GridHash() != base.GridHash(); changed != (m.section == "grid") {
				t.Errorf("GridHash changed=%v, want %v", changed, m.section == "grid")
			}
			if changed := s.SolverHash() != base.SolverHash(); changed != (m.section == "solver") {
				t.Errorf("SolverHash changed=%v, want %v", changed, m.section == "solver")
			}
		})
	}
}

// TestWorkerVariant: the worker variant strips exactly the coordinator-
// only fields and — critically for the handshake — keeps the SpecHash.
func TestWorkerVariant(t *testing.T) {
	s := fullyNonDefault()
	s.Mode = ModeTransmission
	s.Solver.Formalism = "wf" // the spec must validate: -domains is wf-only
	w := s.WorkerVariant()
	if w.Resilience.Checkpoint != "" || w.Resilience.Resume || w.Resilience.Quarantine {
		t.Errorf("worker variant kept coordinator-only resilience fields: %+v", w.Resilience)
	}
	if w.Exec.Workers != 1 {
		t.Errorf("worker variant pool width = %d, want 1 (exact flop merging)", w.Exec.Workers)
	}
	if w.Resilience.MaxRetries != s.Resilience.MaxRetries || w.Resilience.FaultRate != s.Resilience.FaultRate {
		t.Errorf("worker variant lost retry/drill policy: %+v", w.Resilience)
	}
	if w.SpecHash() != s.SpecHash() {
		t.Error("worker variant changed SpecHash — the handshake would reject the coordinator's own children")
	}
	if err := w.ValidateFor(RoleWorker); err != nil {
		t.Errorf("worker variant invalid for RoleWorker: %v", err)
	}
}

// TestValidateRejections: the cross-field combinations that used to be
// silently ignored must now fail, naming the flag and the mode.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*RunSpec)
		role Role
		want []string // substrings of the error
	}{
		{"resume without checkpoint", func(s *RunSpec) { s.Resilience.Resume = true }, RoleLocal,
			[]string{"-resume", "-checkpoint"}},
		{"checkpoint in iv mode", func(s *RunSpec) { s.Mode = ModeIV; s.Resilience.Checkpoint = "x" }, RoleLocal,
			[]string{"-checkpoint", `"iv"`}},
		{"quarantine in stats mode", func(s *RunSpec) { s.Mode = ModeStats; s.Resilience.Quarantine = true }, RoleLocal,
			[]string{"-quarantine", `"stats"`}},
		{"fault drill in iv mode", func(s *RunSpec) { s.Mode = ModeIV; s.Resilience.FaultRate = 0.5 }, RoleLocal,
			[]string{"-fault-rate", `"iv"`}},
		{"retries in stats mode", func(s *RunSpec) { s.Mode = ModeStats; s.Resilience.MaxRetries = 2 }, RoleLocal,
			[]string{"-max-retries", `"stats"`}},
		{"task timeout in iv mode", func(s *RunSpec) { s.Mode = ModeIV; s.Resilience.TaskTimeout = Duration(time.Second) }, RoleLocal,
			[]string{"-task-timeout", `"iv"`}},
		{"energy points in iv mode", func(s *RunSpec) { s.Mode = ModeIV; s.Grid.NE = 7 }, RoleLocal,
			[]string{"-ne ", `"iv"`, "silently ignored"}},
		{"energy floor in iv mode", func(s *RunSpec) { s.Mode = ModeIV; s.Grid.EMin = -1 }, RoleLocal,
			[]string{"-emin ", `"iv"`, "silently ignored"}},
		{"energy ceiling in iv mode", func(s *RunSpec) { s.Mode = ModeIV; s.Grid.EMax = 1 }, RoleLocal,
			[]string{"-emax ", `"iv"`, "silently ignored"}},
		{"momentum grid in iv mode", func(s *RunSpec) { s.Mode = ModeIV; s.Device.Name = "utb"; s.Grid.NK = 3 }, RoleLocal,
			[]string{"-nk ", `"iv"`, "silently ignored"}},
		{"worker with checkpoint", func(s *RunSpec) { s.Resilience.Checkpoint = "x" }, RoleWorker,
			[]string{"-checkpoint", "coordinator"}},
		{"worker with resume", func(s *RunSpec) { s.Resilience.Checkpoint = "x"; s.Resilience.Resume = true }, RoleWorker,
			[]string{"-resume", "coordinator"}},
		{"distributed iv", func(s *RunSpec) { s.Mode = ModeIV }, RoleCoordinator,
			[]string{`"iv"`, "distributed"}},
		{"unknown device", func(s *RunSpec) { s.Device.Name = "nanotube" }, RoleLocal,
			[]string{"nanotube", "agnr7"}},
		{"unknown mode", func(s *RunSpec) { s.Mode = "bands" }, RoleLocal,
			[]string{`"bands"`}},
		{"unknown formalism", func(s *RunSpec) { s.Solver.Formalism = "dft" }, RoleLocal,
			[]string{`"dft"`}},
		{"domains under negf", func(s *RunSpec) { s.Solver.Formalism = "negf"; s.Solver.Domains = 4 }, RoleLocal,
			[]string{"-domains 4", "-formalism negf", "silently ignored"}},
		{"wrong version", func(s *RunSpec) { s.Version = 99 }, RoleLocal,
			[]string{"version 99"}},
		{"empty energy window", func(s *RunSpec) { s.Grid.EMin, s.Grid.EMax = 1, -1 }, RoleLocal,
			[]string{"energy window"}},
		{"momentum grid on a device not periodic in y", func(s *RunSpec) { s.Grid.NK = 3 }, RoleServer,
			[]string{"-nk 3", `"agnr7"`, "silently ignored"}},
		{"task grid overflow", func(s *RunSpec) { s.Device.Name = "utb"; s.Grid.NK = 1 << 40; s.Grid.NE = 1 << 40 }, RoleLocal,
			[]string{"-nk", "-ne", "overflows"}},
		{"fault rate out of range", func(s *RunSpec) { s.Resilience.FaultRate = 1.5 }, RoleLocal,
			[]string{"-fault-rate"}},
		{"unknown priority", func(s *RunSpec) { s.Exec.Priority = "urgent" }, RoleLocal,
			[]string{`"urgent"`, "priority"}},
		{"negative shards", func(s *RunSpec) { s.Exec.Shards = -1 }, RoleLocal,
			[]string{"-shards"}},
		{"unknown wire format", func(s *RunSpec) { s.Exec.WireFormat = "xml" }, RoleLocal,
			[]string{`"xml"`, "wire"}},
		{"job in iv mode", func(s *RunSpec) { s.Mode = ModeIV }, RoleServer,
			[]string{`"iv"`, "job"}},
		{"job with checkpoint", func(s *RunSpec) { s.Resilience.Checkpoint = "x" }, RoleServer,
			[]string{"server", "spec hash"}},
		{"job with resume", func(s *RunSpec) { s.Resilience.Checkpoint = "x"; s.Resilience.Resume = true }, RoleServer,
			[]string{"resume", "re-submitting"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := Default()
			tc.mut(&s)
			err := s.ValidateFor(tc.role)
			if err == nil {
				t.Fatalf("ValidateFor(%v) accepted %+v", tc.role, s)
			}
			for _, sub := range tc.want {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("error %q does not mention %q", err, sub)
				}
			}
		})
	}

	// And the spec every CLI starts from must of course be valid.
	if err := Default().Validate(); err != nil {
		t.Errorf("Default() invalid: %v", err)
	}
}

// TestValidateRejectsNonFinite: every float leaf of a spec, set to NaN or
// an infinity (flag.Float64Var accepts all three spellings), is refused by
// the name of its flag — every ordering test in Validate is false on NaN,
// and the hashes cannot encode one.
func TestValidateRejectsNonFinite(t *testing.T) {
	leaves := []struct {
		flag  string
		field func(*RunSpec) *float64
	}{
		{"-emin", func(s *RunSpec) *float64 { return &s.Grid.EMin }},
		{"-emax", func(s *RunSpec) *float64 { return &s.Grid.EMax }},
		{"-vd", func(s *RunSpec) *float64 { return &s.Grid.VDrain }},
		{"-vgmin", func(s *RunSpec) *float64 { return &s.Grid.VGMin }},
		{"-vgmax", func(s *RunSpec) *float64 { return &s.Grid.VGMax }},
		{"-fault-rate", func(s *RunSpec) *float64 { return &s.Resilience.FaultRate }},
	}
	// The table must be every float64 leaf of RunSpec: a float field added
	// without a row here would reopen the hole.
	if n := countFloatLeaves(reflect.TypeOf(RunSpec{})); n != len(leaves) {
		t.Fatalf("RunSpec has %d float64 leaves, the table covers %d", n, len(leaves))
	}
	for _, leaf := range leaves {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, mode := range []string{ModeTransmission, ModeIV, ModeStats} {
				s := Default()
				s.Mode = mode
				*leaf.field(&s) = v
				err := s.Validate()
				if err == nil || !strings.Contains(err.Error(), leaf.flag+" ") {
					t.Errorf("mode %s, %s = %g: Validate returned %v, want an error naming the flag", mode, leaf.flag, v, err)
				}
			}
		}
	}
}

func countFloatLeaves(t reflect.Type) int {
	n := 0
	for i := 0; i < t.NumField(); i++ {
		switch f := t.Field(i).Type; f.Kind() {
		case reflect.Struct:
			n += countFloatLeaves(f)
		case reflect.Float64:
			n++
		}
	}
	return n
}

// TestPlanDimsMatchSpec: the shape a reader takes from the spec is the
// shape the engine plans, for every registry device — the y-periodic one
// with a real momentum grid included.
func TestPlanDimsMatchSpec(t *testing.T) {
	for _, name := range device.Names() {
		s := Default()
		s.Device.Name = name
		s.Grid.NE = 7
		if d, _ := device.Lookup(name); d.Kind.PeriodicY() {
			s.Grid.NK = 3
		}
		b, err := Build(s)
		if err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		plan, err := b.Sim.PlanTransmission(b.Grid, nil)
		if err != nil {
			t.Fatalf("%s: PlanTransmission: %v", name, err)
		}
		pb, pk, pe := plan.Dims()
		sb, sk, se := s.Dims()
		if pb != sb || pk != sk || pe != se {
			t.Errorf("%s: plan dims %d×%d×%d, spec dims %d×%d×%d", name, pb, pk, pe, sb, sk, se)
		}
		if got := len(s.EnergyGrid()); got != se {
			t.Errorf("%s: EnergyGrid has %d points, Dims says %d", name, got, se)
		}
	}
}

// FuzzSpecParse: Parse never panics on arbitrary bytes, and a spec that
// parses and validates survives its own canonical encoding — equal value,
// equal SpecHash — with a sweep shape readers can multiply out.
func FuzzSpecParse(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden specs to seed from: %v", err)
	}
	for _, path := range goldens {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b) // Parse reads the leading JSON value; the hash lines trail it
	}
	f.Add([]byte(`{"device":{"name":"utb"},"grid":{"nK":3,"nE":20}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Parse(b)
		if err != nil || s.Validate() != nil {
			return
		}
		c, err := s.Canonical()
		if err != nil {
			t.Fatalf("Canonical of a valid spec: %v", err)
		}
		got, err := Parse(c)
		if err != nil {
			t.Fatalf("Parse(Canonical) = %v\n%s", err, c)
		}
		if got != s || got.SpecHash() != s.SpecHash() {
			t.Fatalf("canonical round trip changed the spec:\n in: %+v\nout: %+v", s, got)
		}
		if s.Mode == ModeStats {
			return // no sweep, and its grid fields are not validated
		}
		nBias, nK, nE := s.Dims()
		if nBias < 1 || nK < 1 || nE < 1 || nK > math.MaxInt/nE {
			t.Fatalf("valid spec with unusable dims %d×%d×%d", nBias, nK, nE)
		}
	})
}

// TestStudyModesRejected: the scaling studies left the spec — cmd/scaling
// prints the machine model directly — so a spec naming one of the old
// study modes is an unknown mode like any other typo, for every role.
func TestStudyModesRejected(t *testing.T) {
	s, err := Parse([]byte(`{"mode":"study-strong"}`))
	if err != nil {
		t.Fatalf("Parse: %v (mode is checked by Validate, not the decoder)", err)
	}
	for _, role := range []Role{RoleLocal, RoleCoordinator, RoleWorker, RoleServer} {
		err := s.ValidateFor(role)
		if err == nil || !strings.Contains(err.Error(), `unknown mode "study-strong"`) {
			t.Errorf("ValidateFor(%v) = %v, want unknown mode \"study-strong\"", role, err)
		}
	}
}

// TestDurationJSON: durations encode as human strings and decode from
// both strings and nanosecond counts.
func TestDurationJSON(t *testing.T) {
	s := Default()
	s.Resilience.TaskTimeout = Duration(90 * time.Second)
	b, err := s.Canonical()
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	if !strings.Contains(string(b), `"taskTimeout":"1m30s"`) {
		t.Errorf("duration not human-readable in %s", b)
	}
	got, err := Parse([]byte(`{"resilience":{"taskTimeout":1500000000}}`))
	if err != nil {
		t.Fatalf("Parse ns count: %v", err)
	}
	if got.Resilience.TaskTimeout.Std() != 1500*time.Millisecond {
		t.Errorf("ns decode = %v", got.Resilience.TaskTimeout.Std())
	}
	if _, err := Parse([]byte(`{"exec":{"leaseTimeout":"soon"}}`)); err == nil {
		t.Error("Parse accepted a malformed duration")
	}
}

// TestDurationJSONEdges walks the decode edge cases one by one: negative
// values (parse fine — Validate is where sign policy lives), bare
// numbers (nanoseconds, negative included), and the strings that must
// fail loudly (empty, garbage, unitless, and non-scalar JSON).
func TestDurationJSONEdges(t *testing.T) {
	good := []struct {
		name string
		js   string
		want time.Duration
	}{
		{"negative string", `"-5s"`, -5 * time.Second},
		{"bare nanoseconds", `2500000000`, 2500 * time.Millisecond},
		{"negative nanoseconds", `-1000000000`, -time.Second},
		{"zero number", `0`, 0},
		{"zero string", `"0s"`, 0},
		{"compound string", `"1h2m3s"`, time.Hour + 2*time.Minute + 3*time.Second},
	}
	for _, tc := range good {
		t.Run(tc.name, func(t *testing.T) {
			var d Duration
			if err := d.UnmarshalJSON([]byte(tc.js)); err != nil {
				t.Fatalf("UnmarshalJSON(%s): %v", tc.js, err)
			}
			if d.Std() != tc.want {
				t.Errorf("decoded %s = %v, want %v", tc.js, d.Std(), tc.want)
			}
		})
	}

	bad := []struct {
		name string
		js   string
		want string // substring of the error
	}{
		{"empty string", `""`, "bad duration"},
		{"garbage string", `"soon"`, "bad duration"},
		{"unitless string", `"30"`, "bad duration"},
		{"float number", `1.5`, "duration"},
		{"object", `{"s":30}`, "duration"},
		{"null", `null`, "duration"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			var d Duration
			err := d.UnmarshalJSON([]byte(tc.js))
			if err == nil {
				t.Fatalf("UnmarshalJSON(%s) accepted, decoded %v", tc.js, d.Std())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// Negative durations decode but Validate rejects them — the decoder
	// is a format concern, sign policy a spec concern.
	s := Default()
	s.Exec.LeaseTimeout = Duration(-time.Second)
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "-lease-timeout") {
		t.Errorf("Validate on negative lease timeout = %v, want -lease-timeout error", err)
	}
}

// TestSummary pins the one-line description's load-bearing parts: the
// mode, the device, the grid dims, and the 12-char spec-hash prefix the
// job service shows in listings.
func TestSummary(t *testing.T) {
	s := Default()
	s.Device.Name = "utb"
	s.Grid.NK = 4
	s.Grid.NE = 256
	sum := s.Summary()
	for _, part := range []string{"transmission", "utb", "wf", "1×4×256", s.SpecHash()[:12]} {
		if !strings.Contains(sum, part) {
			t.Errorf("Summary %q missing %q", sum, part)
		}
	}
	iv := fullyNonDefault()
	ivSum := iv.Summary()
	for _, part := range []string{"iv", "utb", "negf", "9×5×77", iv.SpecHash()[:12]} {
		if !strings.Contains(ivSum, part) {
			t.Errorf("Summary %q missing %q", ivSum, part)
		}
	}
	stats := Default()
	stats.Mode = ModeStats
	if sSum := stats.Summary(); !strings.Contains(sSum, "stats agnr7") || !strings.Contains(sSum, stats.SpecHash()[:12]) {
		t.Errorf("stats Summary %q missing mode, device or hash", sSum)
	}
}

// TestNewRunID pins the RunID shape failover fencing relies on: a
// readable prefix of the spec hash (a RunID visibly belongs to its spec)
// plus a random suffix (two starts of one spec are distinct instances —
// rejoin fencing would otherwise conflate them).
func TestNewRunID(t *testing.T) {
	h := Default().SpecHash()
	id1, id2 := NewRunID(h), NewRunID(h)
	if !strings.HasPrefix(id1, h[:12]+"-") {
		t.Fatalf("RunID %q does not carry the spec-hash prefix %q", id1, h[:12])
	}
	if id1 == id2 {
		t.Fatalf("two RunIDs of one spec collided (%q): restarts would be indistinguishable from fresh runs", id1)
	}
	if short := NewRunID("abc"); !strings.HasPrefix(short, "abc-") {
		t.Fatalf("short-hash RunID = %q, want abc- prefix", short)
	}
}
