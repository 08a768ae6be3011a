// Package spec defines RunSpec, the one serializable description of a
// simulation run that every entry point shares. A RunSpec names the
// device (registry preset plus overrides), the energy/momentum/bias
// grids, the formalism, the resilience policy, and the execution shape —
// everything `cmd/omen`'s flags used to carry as loose variables. It
// round-trips through a canonical deterministic JSON encoding and is
// content-addressed at four granularities (DeviceHash, GridHash,
// SolverHash, SpecHash), which is what lets
//
//   - the coordinator launch worker children with one serialized spec
//     instead of a hand-maintained argv mirror,
//   - the distributed handshake reject a worker whose configuration
//     disagrees with the coordinator's beyond mere grid dimensions,
//   - a checkpoint journal record which spec wrote it, so -resume
//     against a foreign journal fails loudly, and
//   - the planned content-addressed run store key results by what was
//     actually computed.
//
// The hashes deliberately cover only the result-determining sections
// (version, mode, device, grid, solver). Resilience and execution
// fields — checkpoint paths, retry budgets, fault drills, worker
// counts, lease timeouts, wire formats — change how a run executes, not
// what it computes: the engine's determinism guarantees (see DESIGN.md
// §7, §10, §11) make observables independent of them, so two runs with
// equal SpecHash produce bitwise-identical results.
package spec

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/device"
	"repro/internal/transport"
)

// Version is the RunSpec schema version this package reads and writes.
const Version = 1

// Run modes. Every mode builds a device; the transmission mode drives the
// sweep engine (and may run distributed), the others are single-process.
const (
	ModeTransmission = "transmission" // momentum-averaged T(E) sweep
	ModeIV           = "iv"           // self-consistent gate sweep
	ModeStats        = "stats"        // device bookkeeping table
)

// Role distinguishes how a process participates in a run; some spec
// fields are only valid for some roles.
type Role int

const (
	// RoleLocal is a single-process run.
	RoleLocal Role = iota
	// RoleCoordinator owns the grid and the journal of a distributed run.
	RoleCoordinator
	// RoleWorker pulls leases from a coordinator; it never journals.
	RoleWorker
	// RoleServer is a spec submitted to the job service (`omend`). The
	// server owns journal placement — jobs are keyed and stored by
	// SpecHash — so a submitted spec may not carry -checkpoint/-resume,
	// and only the modes the job executor streams (transmission) are
	// accepted.
	RoleServer
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleLocal:
		return "local"
	case RoleCoordinator:
		return "coordinator"
	case RoleWorker:
		return "worker"
	case RoleServer:
		return "server"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Duration is a time.Duration that encodes as a human-editable string
// ("30s", "1m30s") in spec files, while still accepting a bare integer
// nanosecond count.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("spec: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("spec: duration must be a string like \"30s\" or a nanosecond count")
	}
	*d = Duration(n)
	return nil
}

// Std returns the duration as a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// DeviceSpec names a registry preset and the structural overrides
// applied on top of it (0 keeps the preset's value).
type DeviceSpec struct {
	// Name is a key of device.Registry (e.g. "agnr7", "sinw-full").
	Name string `json:"name"`
	// CellsX/CellsY/CellsZ override the preset's cell counts when > 0.
	CellsX int `json:"cellsX,omitempty"`
	CellsY int `json:"cellsY,omitempty"`
	CellsZ int `json:"cellsZ,omitempty"`
}

// GridSpec fixes the sampling grids: the energy window and count, the
// transverse momentum count, and (for iv mode) the bias grids.
type GridSpec struct {
	EMin float64 `json:"eMin"` // spectrum lower bound (eV)
	EMax float64 `json:"eMax"` // spectrum upper bound (eV)
	NE   int     `json:"nE"`   // energy points
	NK   int     `json:"nK"`   // transverse momentum points
	// VDrain and the gate grid apply to iv mode only.
	VDrain float64 `json:"vDrain"`
	VGMin  float64 `json:"vgMin"`
	VGMax  float64 `json:"vgMax"`
	NVG    int     `json:"nVG"`
}

// SolverSpec selects the single-energy formalism and its decomposition —
// the only solver choices that determine a result's bits, so the only ones
// the content hashes cover.
type SolverSpec struct {
	// Formalism is "wf" (wave function) or "negf" (NEGF/RGF).
	Formalism string `json:"formalism"`
	// Domains is the SplitSolve spatial decomposition (wf only; ≤1 serial).
	Domains int `json:"domains"`
}

// ResilienceSpec is the fault-tolerance policy of the sweep engine.
// None of it affects converged observables (tasks are deterministic and
// retried/resumed results are bitwise-identical), so none of it is
// content-hashed.
type ResilienceSpec struct {
	// Checkpoint is the sweep journal path ("" disables journaling).
	Checkpoint string `json:"checkpoint,omitempty"`
	// Resume continues an existing Checkpoint journal.
	Resume bool `json:"resume,omitempty"`
	// MaxRetries is the per-task retry budget beyond the first attempt.
	MaxRetries int `json:"maxRetries,omitempty"`
	// TaskTimeout is the per-attempt deadline (0: none).
	TaskTimeout Duration `json:"taskTimeout,omitempty"`
	// Quarantine drops unsalvageable points and renormalizes instead of
	// failing the sweep.
	Quarantine bool `json:"quarantine,omitempty"`
	// FaultRate/FaultSeed drive the deterministic fault-injection drill.
	FaultRate float64 `json:"faultRate,omitempty"`
	FaultSeed uint64  `json:"faultSeed"`
}

// ExecSpec shapes execution: how wide and (distributed) how patient. Like
// everything here it is outside the content hashes — a worker count or
// failover patience changes how a run executes and survives, never what
// it computes.
type ExecSpec struct {
	// Workers is the worker budget: pool width locally, self-spawned
	// worker processes for a coordinator (0: GOMAXPROCS / external only).
	Workers int `json:"workers"`
	// LeaseTimeout is how long a distributed worker may hold a task.
	LeaseTimeout Duration `json:"leaseTimeout"`
	// RejoinWindow is how long a worker keeps re-dialing a crashed
	// coordinator before giving up (0: rejoin disabled — a coordinator
	// crash ends the worker with an error). The window restarts at each
	// connection loss.
	RejoinWindow Duration `json:"rejoinWindow"`
	// DrainTimeout bounds a coordinator's graceful drain on SIGTERM: how
	// long it keeps accepting in-flight results after it stops granting
	// leases.
	DrainTimeout Duration `json:"drainTimeout"`
	// Priority is the job service's scheduling class for this spec:
	// "low", "normal", or "high" ("" means normal). omitempty keeps the
	// canonical encoding of every pre-service spec byte-stable; like the
	// rest of ExecSpec it is unhashed — priority changes when a job runs,
	// never what it computes.
	Priority string `json:"priority,omitempty"`
	// Shards is the number of coordinator scheduling shards the task grid
	// is partitioned across (0 or 1: the classic single queue). Workers
	// are homed round-robin and steal from loaded shards when their own
	// runs dry. Unhashed and omitempty like the rest of ExecSpec: pure
	// scheduling, byte-stable pre-shard specs.
	Shards int `json:"shards,omitempty"`
	// WireFormat picks the coordinator/worker wire for hot messages:
	// "" or "binary" negotiates the compact binary payloads, "json"
	// keeps the same messages' payloads JSON. A pure transport knob — results are
	// bitwise identical either way — so unhashed, and omitempty keeps
	// older canonical specs byte-stable.
	WireFormat string `json:"wireFormat,omitempty"`
}

// RunSpec fully describes one run. The zero value is not usable; start
// from Default() (Parse and LoadFile do).
type RunSpec struct {
	Version    int            `json:"version"`
	Mode       string         `json:"mode"`
	Device     DeviceSpec     `json:"device"`
	Grid       GridSpec       `json:"grid"`
	Solver     SolverSpec     `json:"solver"`
	Resilience ResilienceSpec `json:"resilience"`
	Exec       ExecSpec       `json:"exec"`
}

// Default returns the spec the CLIs' flag defaults have always implied:
// a Γ-only wave-function transmission sweep of the AGNR-7 ribbon.
func Default() RunSpec {
	return RunSpec{
		Version: Version,
		Mode:    ModeTransmission,
		Device:  DeviceSpec{Name: "agnr7"},
		Grid: GridSpec{
			EMin: -3, EMax: 3, NE: 101, NK: 1,
			VDrain: 0.2, VGMin: -0.4, VGMax: 0.6, NVG: 6,
		},
		Solver:     SolverSpec{Formalism: "wf", Domains: 1},
		Resilience: ResilienceSpec{FaultSeed: 1},
		Exec: ExecSpec{
			LeaseTimeout: Duration(30 * time.Second),
			DrainTimeout: Duration(10 * time.Second),
		},
	}
}

// Parse decodes a spec from JSON, layered over Default() so a partial
// file ({"device":{"name":"sinw"}}) inherits every other default.
// Unknown fields are rejected — a spec is a contract, and a typoed key
// silently ignored would be the flag-drift problem all over again.
func Parse(b []byte) (RunSpec, error) {
	s := Default()
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("spec: parse: %w", err)
	}
	return s, nil
}

// LoadFile reads and parses a spec file.
func LoadFile(path string) (RunSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Default(), fmt.Errorf("spec: %w", err)
	}
	s, err := Parse(b)
	if err != nil {
		return s, fmt.Errorf("spec: %s: %w", path, err)
	}
	return s, nil
}

// Canonical returns the canonical deterministic encoding of the spec:
// compact JSON with fields in declaration order. Two specs are
// byte-identical under Canonical iff they are equal as values, which is
// what makes the encoding safe to hash and to pass to child processes.
func (s RunSpec) Canonical() ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("spec: encode: %w", err)
	}
	return b, nil
}

// CanonicalIndent is Canonical pretty-printed for humans (-dump-spec,
// example files). Parsing it yields the same spec.
func (s RunSpec) CanonicalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec: encode: %w", err)
	}
	return b, nil
}

// hashedSpec is the result-determining subset of RunSpec that the
// content hashes cover, in canonical field order.
type hashedSpec struct {
	Version int        `json:"version"`
	Mode    string     `json:"mode"`
	Device  DeviceSpec `json:"device"`
	Grid    GridSpec   `json:"grid"`
	Solver  SolverSpec `json:"solver"`
}

// fnvHex returns the FNV-1a 64-bit hash of b as 16 lowercase hex chars.
func fnvHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// mustJSON marshals a hash input. The one thing in the spec structs that
// encoding/json fails on is a non-finite float, which Validate refuses —
// no JSON text decodes to one, only a flag can carry it in.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("spec: hash encode: %v", err))
	}
	return b
}

// DeviceHash content-addresses the device section (FNV-1a 64, hex).
// It is the "device hash" key of the planned content-addressed run store.
func (s RunSpec) DeviceHash() string { return fnvHex(mustJSON(s.Device)) }

// GridHash content-addresses the sampling grids (FNV-1a 64, hex).
func (s RunSpec) GridHash() string { return fnvHex(mustJSON(s.Grid)) }

// SolverHash content-addresses the formalism and its decomposition
// (FNV-1a 64, hex).
func (s RunSpec) SolverHash() string { return fnvHex(mustJSON(s.Solver)) }

// SpecHash content-addresses the whole result-determining spec — the
// schema version, mode, device, grids, and solver — as a SHA-256 over
// the canonical encoding of that subset. Two runs with equal SpecHash
// compute bitwise-identical observables; resilience and execution
// fields are deliberately outside it (see the package comment).
func (s RunSpec) SpecHash() string {
	sum := sha256.Sum256(mustJSON(hashedSpec{
		Version: s.Version,
		Mode:    s.Mode,
		Device:  s.Device,
		Grid:    s.Grid,
		Solver:  s.Solver,
	}))
	return hex.EncodeToString(sum[:])
}

// Dims returns the task grid (nBias, nK, nE) of the spec's transmission
// sweep: what core.PlanTransmission plans for it, and where every reader
// of a journal or a job takes the sweep's shape from. Validate refuses a
// momentum grid the engine would not sample, so nothing is shrunk here.
func (s RunSpec) Dims() (nBias, nK, nE int) { return 1, s.Grid.NK, s.Grid.NE }

// EnergyGrid returns the transmission sweep's energy grid, Dims' nE
// points.
func (s RunSpec) EnergyGrid() []float64 {
	return transport.UniformGrid(s.Grid.EMin, s.Grid.EMax, s.Grid.NE)
}

// Summary returns a compact one-line human description of the spec —
// mode, device, formalism, grid dimensions, and a spec-hash prefix —
// for startup logs and job listings. It is descriptive, not canonical:
// the full identity of a run is its SpecHash.
func (s RunSpec) Summary() string {
	h := s.SpecHash()
	if len(h) > 12 {
		h = h[:12]
	}
	switch s.Mode {
	case ModeTransmission:
		return fmt.Sprintf("%s %s %s 1×%d×%d [%s]", s.Mode, s.Device.Name, s.Solver.Formalism, s.Grid.NK, s.Grid.NE, h)
	case ModeIV:
		return fmt.Sprintf("%s %s %s %d×%d×%d [%s]", s.Mode, s.Device.Name, s.Solver.Formalism, s.Grid.NVG, s.Grid.NK, s.Grid.NE, h)
	default:
		return fmt.Sprintf("%s %s [%s]", s.Mode, s.Device.Name, h)
	}
}

// NewRunID mints a run-instance identifier from a spec hash: a readable
// spec-hash prefix (so a RunID visibly belongs to its spec) plus a random
// suffix (so two starts of the same spec are distinct instances). It is
// stamped into fresh journal headers and served in the distributed
// welcome; rejoining workers pin it to tell "my coordinator restarted"
// from "a different run reused the address". Randomness is deliberate —
// unlike everything else here the RunID names an *instance*, not content.
func NewRunID(specHash string) string {
	prefix := specHash
	if len(prefix) > 12 {
		prefix = prefix[:12]
	}
	var suffix [6]byte
	if _, err := rand.Read(suffix[:]); err != nil {
		// crypto/rand failing means the platform is broken; fall back to a
		// time-free constant rather than aborting a physics run over an ID.
		return prefix + "-0"
	}
	return prefix + "-" + hex.EncodeToString(suffix[:])
}

// WorkerVariant returns the spec a coordinator hands to a self-spawned
// worker: journaling stripped (workers never journal; the coordinator's
// journal is the cluster's source of truth), quarantine stripped
// (quarantine decisions stay centralized), and a 1-wide pool so the
// merged flop accounting stays exact (DESIGN.md §10). None of these
// fields are content-hashed, so the variant's SpecHash equals the
// coordinator's — which is exactly what the handshake verifies.
func (s RunSpec) WorkerVariant() RunSpec {
	w := s
	w.Resilience.Checkpoint = ""
	w.Resilience.Resume = false
	w.Resilience.Quarantine = false
	w.Exec.Workers = 1
	return w
}

var knownModes = map[string]bool{
	ModeTransmission: true,
	ModeIV:           true,
	ModeStats:        true,
}

// Validate checks internal consistency: known names, sane grids, and —
// closing the silent-flag-swallowing hole — that no option inapplicable
// to the spec's mode is set. Each rejection names the offending flag
// and the mode so the fix is obvious from the error alone.
func (s RunSpec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("spec: unsupported spec version %d (this build reads version %d)", s.Version, Version)
	}
	if !knownModes[s.Mode] {
		return fmt.Errorf("spec: unknown mode %q", s.Mode)
	}
	// flag.Float64Var parses "NaN" and "Inf", every comparison below is
	// false on NaN, and the canonical encoding cannot carry either.
	for _, f := range []struct {
		flag string
		v    float64
	}{
		{"-emin", s.Grid.EMin}, {"-emax", s.Grid.EMax}, {"-vd", s.Grid.VDrain},
		{"-vgmin", s.Grid.VGMin}, {"-vgmax", s.Grid.VGMax}, {"-fault-rate", s.Resilience.FaultRate},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("spec: %s must be finite, got %g", f.flag, f.v)
		}
	}

	desc, ok := device.Lookup(s.Device.Name)
	if !ok {
		return fmt.Errorf("spec: unknown device %q (known: %s)", s.Device.Name, strings.Join(device.Names(), ", "))
	}
	if s.Device.CellsX < 0 || s.Device.CellsY < 0 || s.Device.CellsZ < 0 {
		return fmt.Errorf("spec: negative cell-count override for device %q", s.Device.Name)
	}

	switch s.Mode {
	case ModeTransmission:
		if s.Grid.NE > 1 && s.Grid.EMax <= s.Grid.EMin {
			return fmt.Errorf("spec: empty energy window [-emin %g, -emax %g]", s.Grid.EMin, s.Grid.EMax)
		}
	case ModeIV:
		if s.Grid.NVG < 1 {
			return fmt.Errorf("spec: -nvg must be ≥ 1, got %d", s.Grid.NVG)
		}
		if s.Grid.NVG > 1 && s.Grid.VGMax <= s.Grid.VGMin {
			return fmt.Errorf("spec: empty gate window [-vgmin %g, -vgmax %g]", s.Grid.VGMin, s.Grid.VGMax)
		}
		// The FET integrates on its own per-bias energy grid at Γ: these
		// grid fields would change the SpecHash and nothing it prints.
		d := Default().Grid
		for _, f := range []struct {
			flag string
			set  bool
		}{
			{"-ne", s.Grid.NE != d.NE}, {"-emin", s.Grid.EMin != d.EMin},
			{"-emax", s.Grid.EMax != d.EMax}, {"-nk", s.Grid.NK > 1},
		} {
			if f.set {
				return fmt.Errorf("spec: %s is not applicable to mode %q (the FET integrates on its own energy grid at Γ); it would have been silently ignored",
					f.flag, s.Mode)
			}
		}
	}
	if s.Mode != ModeStats {
		if s.Grid.NE < 1 {
			return fmt.Errorf("spec: -ne must be ≥ 1, got %d", s.Grid.NE)
		}
		if s.Grid.NK < 1 {
			return fmt.Errorf("spec: -nk must be ≥ 1, got %d", s.Grid.NK)
		}
	}
	// The engine samples transverse momenta only where the structure is
	// Bloch-periodic in y, and every reader takes the sweep's shape from
	// Dims: a momentum grid the engine would collapse to Γ is refused.
	if s.Grid.NK > 1 {
		if !desc.Kind.PeriodicY() {
			return fmt.Errorf("spec: -nk %d is not applicable to device %q (%s is not periodic in y, only Γ is sampled); it would have been silently ignored",
				s.Grid.NK, s.Device.Name, desc.Kind)
		}
		if s.Grid.NE > math.MaxInt/s.Grid.NK {
			return fmt.Errorf("spec: -nk %d × -ne %d overflows the task grid", s.Grid.NK, s.Grid.NE)
		}
	}

	switch s.Solver.Formalism {
	case "wf", "negf":
	default:
		return fmt.Errorf("spec: unknown formalism %q (want wf or negf)", s.Solver.Formalism)
	}
	if s.Solver.Domains < 0 {
		return fmt.Errorf("spec: -domains must be ≥ 0, got %d", s.Solver.Domains)
	}
	// RGF has no domain level and the field is hashed: accepted, it would
	// name one set of bits with two spec hashes.
	if s.Solver.Formalism == "negf" && s.Solver.Domains > 1 {
		return fmt.Errorf("spec: -domains %d is not applicable to -formalism negf (SplitSolve decomposes the wf solve only); it would have been silently ignored",
			s.Solver.Domains)
	}

	// Per-mode applicability of the sweep-engine options. Before specs,
	// `omen -mode iv -checkpoint x -resume` silently ignored all of it.
	if s.Mode != ModeTransmission {
		r := s.Resilience
		var offending string
		switch {
		case r.Checkpoint != "":
			offending = "-checkpoint"
		case r.Resume:
			offending = "-resume"
		case r.MaxRetries != 0:
			offending = "-max-retries"
		case r.TaskTimeout != 0:
			offending = "-task-timeout"
		case r.Quarantine:
			offending = "-quarantine"
		case r.FaultRate != 0:
			offending = "-fault-rate"
		}
		if offending != "" {
			return fmt.Errorf("spec: %s is not applicable to mode %q (the fault-tolerant sweep engine drives only %s); it would have been silently ignored",
				offending, s.Mode, ModeTransmission)
		}
	}

	if s.Resilience.Resume && s.Resilience.Checkpoint == "" {
		return fmt.Errorf("spec: -resume requires -checkpoint (nothing to resume from)")
	}
	if s.Resilience.MaxRetries < 0 {
		return fmt.Errorf("spec: -max-retries must be ≥ 0, got %d", s.Resilience.MaxRetries)
	}
	if s.Resilience.TaskTimeout < 0 {
		return fmt.Errorf("spec: -task-timeout must be ≥ 0, got %s", s.Resilience.TaskTimeout.Std())
	}
	if s.Resilience.FaultRate < 0 || s.Resilience.FaultRate > 1 {
		return fmt.Errorf("spec: -fault-rate must be in [0, 1], got %g", s.Resilience.FaultRate)
	}
	if s.Exec.Workers < 0 {
		return fmt.Errorf("spec: -workers must be ≥ 0, got %d", s.Exec.Workers)
	}
	if s.Exec.LeaseTimeout < 0 {
		return fmt.Errorf("spec: -lease-timeout must be ≥ 0, got %s", s.Exec.LeaseTimeout.Std())
	}
	if s.Exec.RejoinWindow < 0 {
		return fmt.Errorf("spec: -rejoin-window must be ≥ 0, got %s", s.Exec.RejoinWindow.Std())
	}
	if s.Exec.DrainTimeout < 0 {
		return fmt.Errorf("spec: -drain-timeout must be ≥ 0, got %s", s.Exec.DrainTimeout.Std())
	}
	switch s.Exec.Priority {
	case "", "low", "normal", "high":
	default:
		return fmt.Errorf("spec: unknown priority %q (want low, normal, or high)", s.Exec.Priority)
	}
	if s.Exec.Shards < 0 {
		return fmt.Errorf("spec: -shards must be ≥ 0, got %d", s.Exec.Shards)
	}
	switch s.Exec.WireFormat {
	case "", "binary", "json":
	default:
		return fmt.Errorf("spec: unknown wire format %q (want binary or json)", s.Exec.WireFormat)
	}
	return nil
}

// ValidateFor checks the spec for one process role. Beyond Validate:
// distributed roles exist only for the sweep-engine mode, and a worker may
// not journal — -checkpoint/-resume belong to the coordinator, whose
// journal is the cluster's source of truth.
func (s RunSpec) ValidateFor(role Role) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if role == RoleCoordinator || role == RoleWorker {
		if s.Mode != ModeTransmission {
			return fmt.Errorf("spec: mode %q cannot run distributed (only %s shards over workers)",
				s.Mode, ModeTransmission)
		}
	}
	if role == RoleWorker {
		if s.Resilience.Resume {
			return fmt.Errorf("spec: -resume belongs to the coordinator; workers do not journal")
		}
		if s.Resilience.Checkpoint != "" {
			return fmt.Errorf("spec: -checkpoint belongs to the coordinator; workers do not journal")
		}
	}
	if role == RoleServer {
		if s.Mode != ModeTransmission {
			return fmt.Errorf("spec: mode %q cannot be submitted as a job (the service streams only %s sweeps)",
				s.Mode, ModeTransmission)
		}
		if s.Resilience.Resume {
			return fmt.Errorf("spec: resume is implicit for the server — re-submitting a spec resumes (or replays) its journal")
		}
		if s.Resilience.Checkpoint != "" {
			return fmt.Errorf("spec: checkpoint belongs to the server — jobs are journaled by spec hash in the server's data directory")
		}
	}
	return nil
}
