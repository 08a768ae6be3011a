package distrib

import (
	"fmt"
	"time"

	"repro/internal/comms"
	"repro/internal/perf"
)

// This file defines the binary payload encodings of the hot protocol
// messages — lease grants and coalesced result uploads — on top of the
// comms.BinWriter/BinReader primitives. The handshake and
// every cold message stay JSON (negotiation precedes format choice, and
// debuggability of rare frames is worth more than their bytes).
//
// Every binary payload opens with a one-byte payload-format version so
// the encodings can evolve without minting new frame types. Decoders
// inherit the never-panic contract from comms.BinReader and additionally
// bound every count by the bytes that remain, so a hostile count cannot
// balloon an allocation; FuzzDecodeLeaseBin and FuzzDecodeResultBatchBin
// pin both properties.

// binFormat is the payload-format version byte opening every binary
// payload.
const binFormat = 3

// Worker-side wire observability: every frame a worker sends or
// receives increments the process-global perf counters, so for
// production (out-of-process) workers the wire traffic rides the
// per-task deltas like any other counter and merges cluster-wide at the
// coordinator — visible in omend's /metrics next to the engine
// counters. The coordinator counts its own side with local atomics and
// folds them into the report (see coordinator.fill).
var (
	cWireFramesSent = perf.GetCounter("wire-frames-sent")
	cWireFramesRecv = perf.GetCounter("wire-frames-recv")
	cWireBytesSent  = perf.GetCounter("wire-bytes-sent")
	cWireBytesRecv  = perf.GetCounter("wire-bytes-recv")
)

// meterWireSend and meterWireRecv are the codec meter hooks.
func meterWireSend(frameBytes int) {
	cWireFramesSent.Add(1)
	cWireBytesSent.Add(int64(frameBytes))
}

func meterWireRecv(frameBytes int) {
	cWireFramesRecv.Add(1)
	cWireBytesRecv.Add(int64(frameBytes))
}

// checkBinFormat consumes and verifies the leading format byte.
func checkBinFormat(r *comms.BinReader, what string) error {
	if v := r.Byte(); r.Err() == nil && v != binFormat {
		return fmt.Errorf("distrib: %s: unsupported binary payload format %d (want %d)", what, v, binFormat)
	}
	return nil
}

// appendLeaseBin encodes a lease grant: the TTL as uvarint nanoseconds,
// then the task batch as a first absolute index plus zigzag deltas —
// lease batches are runs of consecutive grid indices in the common case,
// so each subsequent task costs one byte.
func appendLeaseBin(w *comms.BinWriter, l leaseMsg) {
	w.Byte(binFormat)
	w.Uvarint(uint64(l.TTL))
	w.Uvarint(uint64(len(l.Tasks)))
	prev := 0
	for i, task := range l.Tasks {
		if i == 0 {
			w.Uvarint(uint64(task))
		} else {
			w.Varint(int64(task - prev))
		}
		prev = task
	}
}

// decodeLeaseBin decodes a msgLeaseBin payload.
func decodeLeaseBin(p []byte) (leaseMsg, error) {
	r := comms.NewBinReader(p)
	if err := checkBinFormat(r, "lease"); err != nil {
		return leaseMsg{}, err
	}
	l := leaseMsg{TTL: time.Duration(r.Uvarint())}
	n := r.Int()
	if r.Err() == nil && n > r.Remaining()+1 {
		// Each task costs at least one byte (the first may cost zero only
		// when n==1 and the index is 0... it still costs one byte); a count
		// beyond the remaining payload is malformed, not worth allocating.
		return leaseMsg{}, fmt.Errorf("distrib: lease: task count %d exceeds payload", n)
	}
	if n > 0 && r.Err() == nil {
		l.Tasks = make([]int, 0, n)
		prev := 0
		for i := 0; i < n && r.Err() == nil; i++ {
			var task int
			if i == 0 {
				task = r.Int()
			} else {
				task = prev + int(r.Varint())
			}
			if task < 0 {
				return leaseMsg{}, fmt.Errorf("distrib: lease: negative task index %d", task)
			}
			l.Tasks = append(l.Tasks, task)
			prev = task
		}
	}
	if err := r.Finish(); err != nil {
		return leaseMsg{}, err
	}
	return l, nil
}

// result flag bits.
const resultFlagFailed = 1 << 0

// appendResultBatchBin encodes a coalesced result upload. Each item
// carries its own epoch tag and perf delta; the delta is already
// compressed at the source (Snapshot.Diff drops unchanged phases and
// counters), so the encoding only pays for what moved.
func appendResultBatchBin(w *comms.BinWriter, batch []resultMsg) {
	w.Byte(binFormat)
	w.Uvarint(uint64(len(batch)))
	for i := range batch {
		res := &batch[i]
		w.Uvarint(uint64(res.Task))
		w.Uvarint(res.Epoch)
		w.Uvarint(uint64(res.Retries))
		var flags byte
		if res.Failed {
			flags |= resultFlagFailed
		}
		w.Byte(flags)
		if res.Failed {
			w.String(res.Error)
		} else {
			w.Blob(res.Payload)
		}
		appendSnapshotBin(w, res.Perf)
	}
}

// decodeResultBatchBin decodes a msgResultBatchBin payload.
func decodeResultBatchBin(p []byte) ([]resultMsg, error) {
	r := comms.NewBinReader(p)
	if err := checkBinFormat(r, "result batch"); err != nil {
		return nil, err
	}
	n := r.Int()
	if r.Err() == nil && n > r.Remaining()/8+1 {
		// Every item costs at least eight bytes (three uvarints, a flag, a
		// length prefix, and a three-field snapshot), so a count beyond
		// remaining/8 is malformed — reject it before sizing the slice, or a
		// hostile count could balloon the allocation far past the payload.
		return nil, fmt.Errorf("distrib: result batch: count %d exceeds payload", n)
	}
	var batch []resultMsg
	if n > 0 && r.Err() == nil {
		batch = make([]resultMsg, 0, n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		res := resultMsg{
			Task:    r.Int(),
			Epoch:   r.Uvarint(),
			Retries: r.Int(),
		}
		flags := r.Byte()
		res.Failed = flags&resultFlagFailed != 0
		if res.Failed {
			res.Error = r.String()
		} else {
			// Copy out of the frame buffer: results outlive the frame (the
			// coordinator journals and restores them after the handler moved
			// on to the next frame).
			if b := r.Blob(); len(b) > 0 {
				res.Payload = append([]byte(nil), b...)
			}
		}
		res.Perf = readSnapshotBin(r)
		batch = append(batch, res)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return batch, nil
}

// appendSnapshotBin encodes a perf delta: total flops, then the changed
// phases (name, calls, wall nanos) and changed counters (name, value).
func appendSnapshotBin(w *comms.BinWriter, s perf.Snapshot) {
	w.Varint(s.Flops)
	w.Uvarint(uint64(len(s.Phases)))
	for name, ps := range s.Phases {
		w.String(name)
		w.Varint(ps.Calls)
		w.Varint(int64(ps.Wall))
	}
	w.Uvarint(uint64(len(s.Counters)))
	for name, v := range s.Counters {
		w.String(name)
		w.Varint(v)
	}
}

// readSnapshotBin decodes a perf delta. Empty phase/counter sets decode
// to nil maps, matching what encoding/json produces for the omitted
// fields of the JSON wire. A hostile count cannot balloon an allocation:
// the map size hints are clamped to the bytes remaining, and truncated
// entries poison the reader, which the caller's Finish surfaces.
func readSnapshotBin(r *comms.BinReader) perf.Snapshot {
	s := perf.Snapshot{Flops: r.Varint()}
	if nPhases := clampHint(r.Int(), r); nPhases > 0 {
		s.Phases = make(map[string]perf.PhaseStats, nPhases)
		for i := 0; i < nPhases && r.Err() == nil; i++ {
			name := r.String()
			ps := perf.PhaseStats{
				Calls: r.Varint(),
				Wall:  time.Duration(r.Varint()),
			}
			if r.Err() == nil {
				s.Phases[name] = ps
			}
		}
	}
	if nCounters := clampHint(r.Int(), r); nCounters > 0 {
		s.Counters = make(map[string]int64, nCounters)
		for i := 0; i < nCounters && r.Err() == nil; i++ {
			name := r.String()
			v := r.Varint()
			if r.Err() == nil {
				s.Counters[name] = v
			}
		}
	}
	if r.Err() != nil {
		return perf.Snapshot{}
	}
	return s
}

// clampHint bounds a decoded element count by the bytes remaining (each
// element costs at least one byte), so it is safe to use as an
// allocation size hint; the per-element reads still detect truncation.
func clampHint(n int, r *comms.BinReader) int {
	if rem := r.Remaining(); n > rem {
		return rem
	}
	return n
}
