package negf

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/perf"
)

// cacheShards is the number of independently-locked shards. Entries are
// distributed by a hash of (family, shifted energy), so the hot path of a
// parallel energy sweep — many workers hitting distinct energies — takes
// disjoint locks.
const cacheShards = 16

// CacheStats is a consistent-enough view of the cache's event counters
// (each counter is individually atomic; the struct is not a single cut).
type CacheStats struct {
	// Hits and Misses count lookups per lead (one SelfEnergies call is two
	// lookups). CoalescedWaits counts lookups that found the key already
	// being computed and waited instead of recomputing.
	Hits, Misses, CoalescedWaits int64
	// Evictions counts LRU evictions under a capacity bound.
	Evictions int64
	// Decimations counts runs of the Sancho-Rubio kernel — one per missed
	// record, whether it finished one surface or both.
	Decimations int64
}

// sigmaKey identifies one cached record — the unit of work of the cache,
// one kernel run: a block family at a shifted complex energy. Keying on
// z − shift is the shift-invariance optimization: a pinned flat-band
// contact at bias V satisfies Σ(z; V) = Σ(z − qV; 0), so every bias point
// of a sweep addresses the same canonical record.
type sigmaKey struct {
	fam int
	z   complex128
}

// sigmaEntry is one cached record — the self-energy of every side its
// family has — linked into its shard's LRU list.
type sigmaEntry struct {
	key        sigmaKey
	sigma      [2]*linalg.Matrix
	prev, next *sigmaEntry
}

// inflightSigma coalesces concurrent misses on one key: the first caller
// computes, later callers wait on done and share the result — for a
// mirrored family, both sides of it.
type inflightSigma struct {
	done  chan struct{}
	sigma [2]*linalg.Matrix
	err   error
}

type sigmaShard struct {
	mu       sync.Mutex
	entries  map[sigmaKey]*sigmaEntry
	inflight map[sigmaKey]*inflightSigma
	// LRU list: head is most recent, tail least.
	head, tail *sigmaEntry
}

// SelfEnergyCache memoizes contact self-energies across an entire sweep,
// keyed by (block family, z − qV_lead). Because a pinned flat-band
// contact's surface physics is invariant under a rigid potential shift,
// one cache instance spans all gate/drain points, all SCF iterations, and
// every energy grid of an I-V surface; because the two surfaces of one
// periodic lead fall out of one recursion, a miss on a family both
// contacts continue runs the kernel once for both. Concurrent misses on
// one key are coalesced (exactly one decimation runs; the rest wait),
// lookups on distinct keys take sharded locks, and an optional LRU bound
// caps memory. Safe for concurrent use.
type SelfEnergyCache struct {
	perShardCap int
	shards      [cacheShards]sigmaShard

	families registry

	hits, misses, coalesced     atomic.Int64
	evictions, decimations      atomic.Int64
	ctrHits, ctrMisses, ctrCoal *perf.Counter
	ctrEvict, ctrDecim          *perf.Counter
}

// NewSelfEnergyCache returns an unbounded cache.
func NewSelfEnergyCache() *SelfEnergyCache {
	return NewSelfEnergyCacheCap(0)
}

// NewSelfEnergyCacheCap returns a cache bounded to capacity records, one
// per (block family, shifted energy) — a mirrored family's record holds
// both sides; 0 means unbounded. The bound is approximate: it is enforced
// per shard, rounded up, so the cache may hold up to cacheShards−1 records
// more than requested. It bounds memory only: an evicted record recomputes
// to the same bits, so results do not depend on it.
func NewSelfEnergyCacheCap(capacity int) *SelfEnergyCache {
	c := &SelfEnergyCache{
		ctrHits:   perf.GetCounter("sigma-hits"),
		ctrMisses: perf.GetCounter("sigma-misses"),
		ctrCoal:   perf.GetCounter("sigma-coalesced"),
		ctrEvict:  perf.GetCounter("sigma-evictions"),
		ctrDecim:  perf.GetCounter("sigma-decimations"),
	}
	if capacity > 0 {
		c.perShardCap = (capacity + cacheShards - 1) / cacheShards
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[sigmaKey]*sigmaEntry)
		c.shards[i].inflight = make(map[sigmaKey]*inflightSigma)
	}
	return c
}

// CachedSelfEnergies routes through c when non-nil and computes directly
// from the leads otherwise — the one-liner every solver shares.
func CachedSelfEnergies(c *SelfEnergyCache, l *Leads, z complex128) (sigL, sigR *linalg.Matrix, err error) {
	if c != nil {
		return c.SelfEnergies(l, z)
	}
	return l.SelfEnergies(z)
}

// SelfEnergies returns Σ_L, Σ_R at complex energy z, each served from the
// shift-invariant cache: two lookups, which are one unit of work when both
// contacts continue the same cell at the same shifted energy. The returned
// matrices are shared — callers must not modify them.
func (c *SelfEnergyCache) SelfEnergies(leads *Leads, z complex128) (sigL, sigR *linalg.Matrix, err error) {
	fams, err := c.families.resolve(leads)
	if err != nil {
		return nil, nil, err
	}
	return leads.selfEnergies(fams, z, c.lookup)
}

// Stats returns the cache's event counters.
func (c *SelfEnergyCache) Stats() CacheStats {
	return CacheStats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		CoalescedWaits: c.coalesced.Load(),
		Evictions:      c.evictions.Load(),
		Decimations:    c.decimations.Load(),
	}
}

// Reset discards every cached self-energy while keeping the registered
// block families and the event counters. Distributed workers call it when
// rejoining after a coordinator crash: work executed under the dead epoch
// is discarded by everyone else (the epoch fence coordinator-side, the
// journal-seeded re-dispatch), so a cache warmed by that work would let
// its re-dispatched twin skip the decimation flops a single-process run
// counts — breaking the exact merged-flop accounting. In-flight
// computations are untouched: they complete, their waiters are served,
// and whatever they insert afterwards was computed post-reset anyway.
func (c *SelfEnergyCache) Reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[sigmaKey]*sigmaEntry)
		sh.head, sh.tail = nil, nil
		sh.mu.Unlock()
	}
}

// Len reports the number of cached records (one per block family per
// shifted energy; a mirrored family's record holds both sides).
func (c *SelfEnergyCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// lookup serves the wanted sides of one record through the cache, counting
// one lookup per side.
func (c *SelfEnergyCache) lookup(fam *blockFamily, zc complex128, want sideSet) ([2]*linalg.Matrix, error) {
	lookups := int64(1)
	if want == bothSides {
		lookups = 2
	}
	key := sigmaKey{fam: fam.id, z: zc}
	sh := &c.shards[shardOf(key)]

	sh.mu.Lock()
	if e := sh.entries[key]; e != nil {
		sh.lruTouch(e)
		sh.mu.Unlock()
		c.hits.Add(lookups)
		c.ctrHits.Add(lookups)
		return e.sigma, nil
	}
	if call := sh.inflight[key]; call != nil {
		sh.mu.Unlock()
		c.coalesced.Add(lookups)
		c.ctrCoal.Add(lookups)
		<-call.done
		return call.sigma, call.err
	}
	call := &inflightSigma{done: make(chan struct{})}
	sh.inflight[key] = call
	sh.mu.Unlock()
	c.misses.Add(lookups)
	c.ctrMisses.Add(lookups)

	sigma, err := c.compute(fam, zc)

	sh.mu.Lock()
	delete(sh.inflight, key)
	if err == nil {
		c.insert(sh, &sigmaEntry{key: key, sigma: sigma})
	}
	sh.mu.Unlock()
	call.sigma, call.err = sigma, err
	close(call.done)
	return sigma, err
}

// compute produces a record — every side the family has — at the family's
// canonical, shift-removed energy zc: the uncached miss, counted. All block
// inputs come from the family canon, so the result does not depend on which
// caller missed, nor on which side it wanted.
func (c *SelfEnergyCache) compute(fam *blockFamily, zc complex128) ([2]*linalg.Matrix, error) {
	sigma, err := fam.selfEnergies(zc, fam.sides)
	if err == nil {
		c.decimations.Add(1)
		c.ctrDecim.Add(1)
	}
	return sigma, err
}

// insert links a fresh entry at the LRU head, evicting the shard's tail
// beyond capacity. Caller holds sh.mu.
func (c *SelfEnergyCache) insert(sh *sigmaShard, e *sigmaEntry) {
	sh.entries[e.key] = e
	sh.lruPush(e)
	if c.perShardCap > 0 && len(sh.entries) > c.perShardCap {
		victim := sh.tail
		sh.lruUnlink(victim)
		delete(sh.entries, victim.key)
		c.evictions.Add(1)
		c.ctrEvict.Add(1)
	}
}

// maxAbs returns max over elements of max(|re|, |im|) — the norm of this
// package's convergence tests, a hypot per element cheaper than the
// modulus — and maxAbsDiff the same of a − b. Both propagate NaN.
func maxAbs(a *linalg.Matrix) float64 {
	var mx float64
	for _, v := range a.Data {
		// The decimation's hot loop: two predictable compares per element
		// (the builtin max costs three times as much), NaN leaving through
		// the rare update branch.
		for _, p := range [2]float64{math.Abs(real(v)), math.Abs(imag(v))} {
			if !(p <= mx) {
				if p != p {
					return p
				}
				mx = p
			}
		}
	}
	return mx
}

func maxAbsDiff(a, b *linalg.Matrix) float64 {
	var mx float64
	for i, v := range a.Data {
		d := v - b.Data[i]
		mx = max(mx, math.Abs(real(d)), math.Abs(imag(d)))
	}
	return mx
}

// shardOf hashes a key onto its shard.
func shardOf(k sigmaKey) int {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(real(k.z)))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(imag(k.z)))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(k.fam))
	h.Write(b[:])
	return int(h.Sum64() % cacheShards)
}

// LRU list plumbing; callers hold sh.mu.

func (sh *sigmaShard) lruPush(e *sigmaEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *sigmaShard) lruUnlink(e *sigmaEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *sigmaShard) lruTouch(e *sigmaEntry) {
	if sh.head == e {
		return
	}
	sh.lruUnlink(e)
	sh.lruPush(e)
}
