package negf

import (
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/perf"
)

// CacheStats is a consistent-enough view of the cache's event counters
// (each counter is individually atomic; the struct is not a single cut).
type CacheStats struct {
	// Hits and Misses count lookups per lead (one SelfEnergies call is two
	// lookups). CoalescedWaits counts lookups that found the key already
	// being computed and waited instead of recomputing.
	Hits, Misses, CoalescedWaits int64
	// Decimations counts runs of the Sancho-Rubio kernel — one per missed
	// record, whether it finished one surface or both.
	Decimations int64
}

// sigmaKey identifies one cached record — the unit of work of the cache,
// one kernel run: a block family at a complex energy. A pinned contact's
// blocks are the same bits at every SCF iterate and bias point, so all of
// them address the same record.
type sigmaKey struct {
	fam int
	z   complex128
}

// sigmaRecord is one record — the self-energy of every side its family
// has. The first caller to miss its key computes it; done closes when
// sigma and err are set, so a caller that finds it open waits and shares
// the result — for a mirrored family, both sides of it.
type sigmaRecord struct {
	done  chan struct{}
	sigma [2]*linalg.Matrix
	err   error
}

// SelfEnergyCache memoizes contact self-energies across an I-V surface,
// keyed by (block family, z). Because a contact is its blocks, and a
// pinned contact's blocks do not change, one cache instance spans all gate
// points, all SCF iterations, and every energy grid of the surface;
// because the two surfaces of one periodic lead fall out of one recursion,
// a miss on a family both contacts continue runs the kernel once for
// both. Concurrent misses on one key are coalesced: exactly one decimation
// runs, the rest wait. A sweep that asks for each energy once gains
// nothing from it and runs uncached. Safe for concurrent use.
type SelfEnergyCache struct {
	mu      sync.Mutex
	records map[sigmaKey]*sigmaRecord

	families registry

	hits, misses, coalesced, decimations atomic.Int64
	ctrHits, ctrMisses, ctrCoal          *perf.Counter
}

// NewSelfEnergyCache returns an empty cache.
func NewSelfEnergyCache() *SelfEnergyCache {
	return &SelfEnergyCache{
		records:   make(map[sigmaKey]*sigmaRecord),
		ctrHits:   perf.GetCounter("sigma-hits"),
		ctrMisses: perf.GetCounter("sigma-misses"),
		ctrCoal:   perf.GetCounter("sigma-coalesced"),
	}
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
// cache: two lookups, which are one unit of work when both contacts
// continue the same cell. The returned matrices are shared — callers must
// not modify them.
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
		Decimations:    c.decimations.Load(),
	}
}

// Len reports the number of records held or being computed (one per block
// family per energy; a mirrored family's record holds both sides).
func (c *SelfEnergyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.records)
}

// lookup serves the wanted sides of one record through the cache, counting
// one lookup per side. A failed computation leaves no record, so the next
// lookup of its key computes again.
func (c *SelfEnergyCache) lookup(fam *blockFamily, z complex128, want sideSet) ([2]*linalg.Matrix, error) {
	lookups := int64(1)
	if want == bothSides {
		lookups = 2
	}
	key := sigmaKey{fam: fam.id, z: z}

	c.mu.Lock()
	if r := c.records[key]; r != nil {
		c.mu.Unlock()
		select {
		case <-r.done:
			c.hits.Add(lookups)
			c.ctrHits.Add(lookups)
		default:
			c.coalesced.Add(lookups)
			c.ctrCoal.Add(lookups)
			<-r.done
		}
		return r.sigma, r.err
	}
	r := &sigmaRecord{done: make(chan struct{})}
	c.records[key] = r
	c.mu.Unlock()
	c.misses.Add(lookups)
	c.ctrMisses.Add(lookups)

	// All block inputs come from the family canon, so the record does not
	// depend on which caller missed, nor on which side it wanted.
	r.sigma, r.err = fam.selfEnergies(z, fam.sides)
	if r.err == nil {
		c.decimations.Add(1)
	} else {
		c.mu.Lock()
		delete(c.records, key)
		c.mu.Unlock()
	}
	close(r.done)
	return r.sigma, r.err
}
