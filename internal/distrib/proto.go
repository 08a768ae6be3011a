// Package distrib is the coordinator/worker runtime of the distributed
// sweep engine — the inter-process counterpart of cluster.RunTasksResumable,
// and this repository's stand-in for the MPI rank structure the SC11 runs
// decomposed their (bias × momentum × energy) grids over.
//
// One coordinator owns the task grid. Workers connect over a
// comms.Transport (TCP in production, in-memory loopback in tests),
// announce themselves, and pull *leases*: small batches of flat task
// indices with a deadline. A worker that completes a task reports the
// result (plus its perf counter delta for that task); a worker that
// crashes, hangs, or straggles loses its leases — on disconnect
// immediately, on silence after missed heartbeats, on a straggling task
// when the lease deadline passes — and the tasks are re-dispatched to
// live workers. Because every task is a deterministic function of its
// coordinates, duplicate executions caused by re-dispatch are harmless:
// the first result wins, later ones are discarded, and exactly one record
// per task reaches the checkpoint journal. The merged observables are
// therefore bitwise-identical to a single-process run, kill a worker or
// don't.
//
// The protocol is strictly request/response from the worker's side
// (heartbeats are fire-and-forget): the coordinator never sends an
// unsolicited frame, which makes the message flow deadlock-free even over
// unbuffered synchronous pipes.
package distrib

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/comms"
	"repro/internal/perf"
)

// ProtoVersion is the distrib message-schema version, compared for
// equality in the hello exchange (the comms frame layer has its own,
// lower-level version byte). Every worker is started from the
// coordinator's own binary or checkout, so there is one version and no
// compatibility range; DESIGN.md §10 has the frame table.
const ProtoVersion = 6

// Negotiated wire formats. The handshake (hello/welcome) is always
// JSON — negotiation must precede the thing it negotiates — and every
// binary-payload message has its own frame type, so the decoder
// dispatches on the frame, never on connection state.
const (
	wireJSON = "json"
	wireBin  = "bin"
)

// Frame types of the coordinator/worker protocol. The two wires carry
// the same messages; the hot ones — lease grants and result uploads —
// have a binary-payload twin next to the JSON one.
const (
	msgHello comms.MsgType = iota + 1
	msgWelcome
	msgError
	msgLeaseRequest
	msgLease          // lease grant, JSON payload
	msgLeaseBin       // lease grant, binary payload
	msgResultBatch    // coalesced result upload, JSON payload
	msgResultBatchBin // coalesced result upload, binary payload
	msgHeartbeat      // liveness beacon, empty payload on either wire
	msgBye
	msgDone
)

// helloMsg is the worker's opening frame: its identity, protocol version,
// the task grid it was configured for, and the content hash of its run
// spec. The coordinator rejects a worker whose grid disagrees with its
// own, and — stronger — one whose spec hash differs: the grid dims catch
// only size mismatches, while the spec hash covers everything that
// determines results (device, energy window, formalism, solver knobs).
// Either mismatch usually means a flag drift between the two processes,
// which would otherwise silently corrupt the sweep.
type helloMsg struct {
	ID    string `json:"id"`
	Proto int    `json:"proto"`
	NBias int    `json:"nBias"`
	NK    int    `json:"nK"`
	NE    int    `json:"nE"`
	// SpecHash is the worker's spec.RunSpec.SpecHash ("" when the caller
	// runs the protocol without a spec, e.g. protocol-level tests; the
	// check is then skipped on that side).
	SpecHash string `json:"specHash,omitempty"`
	// Wire is the wire format the worker supports and prefers for the
	// hot messages: "bin", or "" for json. The coordinator confirms the
	// session's format in the welcome; binary is used only when both
	// sides offer it.
	Wire string `json:"wire,omitempty"`
}

// welcomeMsg is the coordinator's accept: the authoritative grid and
// spec hash plus the liveness parameters the worker must honor. RunID
// and Epoch fence coordinator incarnations: a worker that rejoins after
// a coordinator crash pins the RunID from its first welcome (a changed
// RunID means a different run reused the address — fatal) and adopts the
// new Epoch, discarding any in-flight results computed under the old
// one. Both are empty/zero when the caller runs without a journal-backed
// run identity (e.g. protocol tests), which disables fencing.
type welcomeMsg struct {
	NBias          int           `json:"nBias"`
	NK             int           `json:"nK"`
	NE             int           `json:"nE"`
	SpecHash       string        `json:"specHash,omitempty"`
	RunID          string        `json:"runID,omitempty"`
	Epoch          uint64        `json:"epoch,omitempty"`
	HeartbeatEvery time.Duration `json:"heartbeatEvery"`
	LeaseTimeout   time.Duration `json:"leaseTimeout"`
	// Wire is the coordinator's choice of wire format for this session:
	// "bin" commits both sides to the binary hot-message variants,
	// "json" to the JSON ones. A worker that did not advertise "bin" is
	// never offered it.
	Wire string `json:"wire,omitempty"`
}

// errorMsg rejects a worker with a reason (bad protocol version, grid
// mismatch) before any lease is granted.
type errorMsg struct {
	Reason string `json:"reason"`
}

// leaseRequestMsg asks for up to Capacity tasks.
type leaseRequestMsg struct {
	Capacity int `json:"capacity"`
}

// leaseMsg answers a lease request. Either a batch of tasks with a TTL,
// or an empty batch (tasks exist but are all leased elsewhere; the
// request already waited on the coordinator, so the worker asks again at
// once). Sweep completion is not a leaseMsg shape: it is the explicit
// msgDone frame, so "no tasks for you" and "the run is over" can never
// be confused with each other or with a dead coordinator.
type leaseMsg struct {
	Tasks []int         `json:"tasks,omitempty"`
	TTL   time.Duration `json:"ttl,omitempty"`
}

// doneMsg dismisses a worker: the sweep is complete (or the coordinator
// is draining and granting nothing further) — send a bye and disconnect
// cleanly. Carrying the epoch makes the dismissal attributable in logs.
type doneMsg struct {
	Epoch uint64 `json:"epoch,omitempty"`
}

// resultMsg reports one finished task: its payload on success, the final
// error string after the worker's retry policy gave up on failure, and in
// both cases the worker's perf-counter delta attributed to the task and
// the number of extra attempts spent.
type resultMsg struct {
	Task    int           `json:"task"`
	Payload []byte        `json:"payload,omitempty"`
	Retries int           `json:"retries,omitempty"`
	Failed  bool          `json:"failed,omitempty"`
	Error   string        `json:"error,omitempty"`
	Perf    perf.Snapshot `json:"perf"`
	// Epoch is the coordinator incarnation the worker was welcomed into
	// when it executed the task. A coordinator at a newer epoch discards
	// results tagged with an older one (they were already re-dispatched
	// from the journal-seeded lease table). Zero disables the fence.
	Epoch uint64 `json:"epoch,omitempty"`
}

// resultBatchMsg is the coalesced result upload, the only way a result
// travels: every result the worker finished since the last flush (a
// batch of one is a batch), each carrying its own epoch tag (a batch can
// in principle straddle a rejoin) and its own perf delta (already
// delta-compressed: Snapshot.Diff omits unchanged phases and counters).
// One frame per batch is what cuts frames/task below one.
type resultBatchMsg struct {
	Results []resultMsg `json:"results"`
}

// byeMsg is the worker's clean sign-off.
type byeMsg struct{}

// decode unmarshals a frame payload, wrapping failures as protocol errors.
func decode(t comms.MsgType, payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("distrib: malformed message type %d: %w", t, err)
	}
	return nil
}
