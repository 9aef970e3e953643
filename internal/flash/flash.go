// Package flash simulates a NAND-flash SSD behind a page-level FTL, the
// substrate the EDM paper runs on (a modified FlashSim with the
// page-level scheme of Kawaguchi et al. [11]).
//
// Model summary:
//
//   - Reads and writes operate on flash pages (default 4KB); erases
//     operate on blocks (default 128KB = 32 pages), matching §IV.
//   - Updates are out-of-place: a page write programs a free page and
//     invalidates the previous physical location of the logical page.
//   - Garbage collection uses the greedy reclaiming policy [6]: the block
//     with the fewest valid pages is the victim; its valid pages are
//     relocated and the block is erased. GC runs inline with the write
//     that triggered it and its cost is charged to that write, modelling
//     the paper's observation that GC blocks normal I/O.
//   - Latency constants default to the paper's: 25µs page read, 200µs
//     page program, 2ms block erase.
//
// The simulator tracks exactly the quantities the EDM wear model needs:
// host page writes W_c, block erase count E_c, and the measured mean
// valid-page ratio of victim blocks u_r.
package flash

import (
	"errors"
	"fmt"
	"slices"

	"edm/internal/sim"
)

// Paper geometry and latency constants (§IV).
const (
	DefaultPageSize      = 4 * 1024   // bytes
	DefaultBlockSize     = 128 * 1024 // bytes
	DefaultPagesPerBlock = DefaultBlockSize / DefaultPageSize

	DefaultReadLatency    = 25 * sim.Microsecond
	DefaultProgramLatency = 200 * sim.Microsecond
	DefaultEraseLatency   = 2 * sim.Millisecond
)

// ErrFull is returned when a write cannot complete because garbage
// collection can no longer produce free pages (the device holds too much
// live data).
var ErrFull = errors.New("flash: device full")

// GCPolicy selects how garbage collection picks victim blocks.
type GCPolicy int

const (
	// GCGreedy erases the block with the fewest valid pages — the
	// paper's policy [6].
	GCGreedy GCPolicy = iota
	// GCCostBenefit erases the block maximising age·(1−u)/(2u), the
	// LFS cleaner's rule [18]: old, mostly-invalid blocks win, and cold
	// blocks get time to accumulate invalidations.
	GCCostBenefit
)

// String implements fmt.Stringer.
func (p GCPolicy) String() string {
	if p == GCCostBenefit {
		return "cost-benefit"
	}
	return "greedy"
}

// Config describes an SSD instance.
type Config struct {
	PageSize      int64 // bytes per page
	PagesPerBlock int   // pages per erase block
	Blocks        int   // total physical blocks

	// GCLowBlocks triggers garbage collection when the free-block count
	// drops to or below it; GCHighBlocks is the refill target. Defaults:
	// low=2, high=4.
	GCLowBlocks  int
	GCHighBlocks int

	ReadLatency    sim.Time
	ProgramLatency sim.Time
	EraseLatency   sim.Time

	// GCPolicy selects the victim-selection policy. The paper uses the
	// greedy reclaiming policy [6]; cost-benefit (the LFS cleaner's
	// age-weighted rule [18]) is provided as an ablation.
	GCPolicy GCPolicy

	// SeparateGCWrites gives garbage-collection relocations their own
	// write frontier instead of sharing the host frontier. Relocated
	// pages are cold by definition (they survived a greedy victim
	// selection); segregating them from fresh host writes keeps cold
	// pages out of write-hot blocks, lowering victim valid ratios and
	// write amplification under skewed workloads — the hot/cold
	// separation effect Fig. 3 measures at the workload level, applied
	// inside the FTL.
	SeparateGCWrites bool
}

// DefaultConfig returns a paper-parameterised SSD with at least
// totalBytes of physical capacity.
func DefaultConfig(totalBytes int64) Config {
	blocks := int((totalBytes + DefaultBlockSize - 1) / DefaultBlockSize)
	if blocks < 8 {
		blocks = 8
	}
	return Config{
		PageSize:       DefaultPageSize,
		PagesPerBlock:  DefaultPagesPerBlock,
		Blocks:         blocks,
		GCLowBlocks:    2,
		GCHighBlocks:   4,
		ReadLatency:    DefaultReadLatency,
		ProgramLatency: DefaultProgramLatency,
		EraseLatency:   DefaultEraseLatency,
	}
}

func (c *Config) applyDefaults() {
	if c.PageSize == 0 {
		c.PageSize = DefaultPageSize
	}
	if c.PagesPerBlock == 0 {
		c.PagesPerBlock = DefaultPagesPerBlock
	}
	if c.GCLowBlocks == 0 {
		c.GCLowBlocks = 2
	}
	if c.GCHighBlocks == 0 {
		c.GCHighBlocks = c.GCLowBlocks + 2
	}
	if c.ReadLatency == 0 {
		c.ReadLatency = DefaultReadLatency
	}
	if c.ProgramLatency == 0 {
		c.ProgramLatency = DefaultProgramLatency
	}
	if c.EraseLatency == 0 {
		c.EraseLatency = DefaultEraseLatency
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.PageSize <= 0:
		return fmt.Errorf("flash: page size %d must be positive", c.PageSize)
	case c.PagesPerBlock <= 0:
		return fmt.Errorf("flash: pages per block %d must be positive", c.PagesPerBlock)
	case c.Blocks < 4:
		return fmt.Errorf("flash: need at least 4 blocks, got %d", c.Blocks)
	case c.GCLowBlocks < 2:
		return fmt.Errorf("flash: GC low watermark %d must be >= 2 (one block of slack for relocation)", c.GCLowBlocks)
	case c.GCHighBlocks <= c.GCLowBlocks:
		return fmt.Errorf("flash: GC high watermark %d must exceed low %d", c.GCHighBlocks, c.GCLowBlocks)
	case c.GCHighBlocks >= c.Blocks-1:
		return fmt.Errorf("flash: GC high watermark %d too large for %d blocks", c.GCHighBlocks, c.Blocks)
	}
	return nil
}

// Stats captures the wear counters of an SSD. Counters accumulate from
// device creation or the last ResetStats call.
type Stats struct {
	HostPageWrites uint64 // pages programmed on behalf of the host (W_c)
	HostPageReads  uint64 // pages read on behalf of the host
	GCPageMoves    uint64 // valid pages relocated by garbage collection
	Erases         uint64 // block erase operations (E_c)
	TrimmedPages   uint64 // pages invalidated via Trim

	victimValidSum float64 // sum of victim valid-page ratios
}

// VictimValidRatio returns the measured mean valid-page ratio u_r of GC
// victim blocks, or 0 before the first collection.
func (s Stats) VictimValidRatio() float64 {
	if s.Erases == 0 {
		return 0
	}
	return s.victimValidSum / float64(s.Erases)
}

// WriteAmplification returns (host writes + GC moves) / host writes, or 1
// before the first host write.
func (s Stats) WriteAmplification() float64 {
	if s.HostPageWrites == 0 {
		return 1
	}
	return float64(s.HostPageWrites+s.GCPageMoves) / float64(s.HostPageWrites)
}

// Probe observes FTL-internal events the host-facing API hides. The SSD
// has no notion of virtual time or device identity; the owner (the
// cluster's OSD wiring) stamps both when forwarding to the telemetry
// layer. A nil probe — the default — costs one nil-check per
// collection.
type Probe interface {
	// OnErase fires once per garbage-collection victim, after the
	// block is erased, with the victim's valid-page ratio (the measured
	// u_r sample) and the number of valid pages relocated.
	OnErase(validRatio float64, moved int)
}

// SetProbe installs (or, with nil, removes) the FTL probe.
func (s *SSD) SetProbe(p Probe) { s.probe = p }

const (
	invalidPPA = int64(-1)
	unmapped   = int64(-1)
)

type blockState uint8

const (
	blockFree blockState = iota
	blockActive
	blockClosed
)

type block struct {
	state      blockState
	validCount int
	writePtr   int    // next free page slot while active
	bucketPos  int    // index within its valid-count bucket when closed
	lastWrite  uint64 // op-clock stamp of the most recent program (for cost-benefit age)
}

// SSD is the simulated device. It is not safe for concurrent use; each
// simulated OSD owns one SSD and all access happens on the DES thread.
type SSD struct {
	cfg        Config
	totalPages int64

	l2p []int64 // logical page -> physical page, or unmapped
	p2l []int64 // physical page -> logical page, or invalidPPA

	blocks   []block
	free     []int32   // free block ids (LIFO)
	active   int32     // host write frontier block
	gcActive int32     // GC relocation frontier (-1 when shared with host)
	buckets  [][]int32 // closed blocks indexed by valid count

	livePages int64
	opClock   uint64 // monotonically increasing program counter
	stats     Stats
	probe     Probe
}

// New constructs an SSD. The logical address space equals the physical
// page count; callers are responsible for keeping live data below
// MaxLivePages to leave GC headroom.
func New(cfg Config) (*SSD, error) {
	s := &SSD{}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset makes s the fresh device New(cfg) builds, in s's buffers where
// they are large enough. Its probe is removed.
func (s *SSD) Reset(cfg Config) error {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	total := cfg.Blocks * cfg.PagesPerBlock
	*s = SSD{
		cfg:        cfg,
		totalPages: int64(total),
		l2p:        slices.Grow(s.l2p[:0], total)[:total],
		p2l:        slices.Grow(s.p2l[:0], total)[:total],
		blocks:     slices.Grow(s.blocks[:0], cfg.Blocks)[:cfg.Blocks],
		free:       slices.Grow(s.free[:0], cfg.Blocks),
		buckets:    slices.Grow(s.buckets[:0], cfg.PagesPerBlock+1)[:cfg.PagesPerBlock+1],
	}
	for i := range s.l2p {
		s.l2p[i] = unmapped
	}
	for i := range s.p2l {
		s.p2l[i] = invalidPPA
	}
	clear(s.blocks)
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
	}
	// Free list: descending so block 0 becomes the first active block.
	for i := cfg.Blocks - 1; i >= 0; i-- {
		s.free = append(s.free, int32(i))
	}
	s.active = s.popFree()
	s.blocks[s.active].state = blockActive
	s.gcActive = -1
	if cfg.SeparateGCWrites {
		s.gcActive = s.popFree()
		s.blocks[s.gcActive].state = blockActive
	}
	return nil
}

// Clone returns a deep copy of the device: mapping tables, block
// metadata, free list, frontiers, GC buckets in order, and counters, in
// dst's buffers when dst is non-nil (dst is overwritten, so it must
// belong to no live device) and in new ones otherwise. s is only read,
// the copy shares no memory with it, and the copy has no probe.
func (s *SSD) Clone(dst *SSD) *SSD {
	if dst == nil {
		dst = &SSD{}
	}
	old := *dst
	*dst = *s
	dst.l2p = append(old.l2p[:0], s.l2p...)
	dst.p2l = append(old.p2l[:0], s.p2l...)
	dst.blocks = append(old.blocks[:0], s.blocks...)
	dst.free = append(slices.Grow(old.free[:0], cap(s.free)), s.free...)
	dst.buckets = slices.Grow(old.buckets[:0], len(s.buckets))[:len(s.buckets)]
	for i, b := range s.buckets {
		dst.buckets[i] = append(dst.buckets[i][:0], b...)
	}
	dst.probe = nil
	return dst
}

// MustNew is New for tests and examples with known-good configs.
func MustNew(cfg Config) *SSD {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the device configuration (with defaults applied).
func (s *SSD) Config() Config { return s.cfg }

// TotalPages returns the physical page count.
func (s *SSD) TotalPages() int64 { return s.totalPages }

// TotalBytes returns the physical capacity in bytes.
func (s *SSD) TotalBytes() int64 { return s.totalPages * s.cfg.PageSize }

// MaxLivePages is the largest live-page population that still leaves GC
// enough headroom to make progress (high watermark + the write
// frontiers).
func (s *SSD) MaxLivePages() int64 {
	frontiers := 1
	if s.gcActive >= 0 {
		frontiers = 2
	}
	reserve := int64(s.cfg.GCHighBlocks+frontiers) * int64(s.cfg.PagesPerBlock)
	return s.totalPages - reserve
}

// LivePages returns the number of currently valid (mapped) pages.
func (s *SSD) LivePages() int64 { return s.livePages }

// Utilization returns live pages / total physical pages — the disk
// utilization u of the EDM wear model.
func (s *SSD) Utilization() float64 {
	return float64(s.livePages) / float64(s.totalPages)
}

// Stats returns a copy of the wear counters.
func (s *SSD) Stats() Stats { return s.stats }

// ResetStats zeroes the counters, starting a new measurement window
// (used after warm-up and between migration epochs).
func (s *SSD) ResetStats() { s.stats = Stats{} }

// Read services a host read of the logical page lpa and returns its
// latency. Reading an unwritten page is legal (the paper's traces read
// pre-created files) and costs a page read.
func (s *SSD) Read(lpa int64) sim.Time {
	s.checkLPA(lpa)
	s.stats.HostPageReads++
	return s.cfg.ReadLatency
}

// ReadN services a host read of n logical pages starting at lpa.
func (s *SSD) ReadN(lpa int64, n int) sim.Time {
	var t sim.Time
	for i := 0; i < n; i++ {
		t += s.Read(lpa + int64(i))
	}
	return t
}

// Write services a host write of the logical page lpa, returning the
// latency including any garbage collection it triggered.
func (s *SSD) Write(lpa int64) (sim.Time, error) {
	s.checkLPA(lpa)
	lat, err := s.program(lpa)
	if err != nil {
		return lat, err
	}
	s.stats.HostPageWrites++
	return lat, nil
}

// WriteN services a host write of n logical pages starting at lpa.
func (s *SSD) WriteN(lpa int64, n int) (sim.Time, error) {
	var t sim.Time
	for i := 0; i < n; i++ {
		lat, err := s.Write(lpa + int64(i))
		t += lat
		if err != nil {
			return t, err
		}
	}
	return t, nil
}

// Trim invalidates the logical page lpa without writing, as when an
// object is deleted or migrated away. Trimming an unmapped page is a
// no-op.
func (s *SSD) Trim(lpa int64) {
	s.checkLPA(lpa)
	ppa := s.l2p[lpa]
	if ppa == unmapped {
		return
	}
	s.invalidate(ppa)
	s.l2p[lpa] = unmapped
	s.livePages--
	s.stats.TrimmedPages++
}

// TrimN invalidates n logical pages starting at lpa.
func (s *SSD) TrimN(lpa int64, n int) {
	for i := 0; i < n; i++ {
		s.Trim(lpa + int64(i))
	}
}

// FreeBlocks returns the current number of free blocks (for tests).
func (s *SSD) FreeBlocks() int { return len(s.free) }

func (s *SSD) checkLPA(lpa int64) {
	if lpa < 0 || lpa >= s.totalPages {
		panic(fmt.Sprintf("flash: LPA %d out of range [0,%d)", lpa, s.totalPages))
	}
}

// program writes one logical page out-of-place and runs GC if needed.
func (s *SSD) program(lpa int64) (sim.Time, error) {
	lat := sim.Time(0)

	// Invalidate the previous location first: its page becomes
	// reclaimable, which can matter for the GC below.
	if old := s.l2p[lpa]; old != unmapped {
		s.invalidate(old)
		s.livePages--
	}

	gcLat, err := s.ensureSpace()
	lat += gcLat
	if err != nil {
		// The previous copy is gone; surface a full device.
		s.l2p[lpa] = unmapped
		return lat, err
	}

	ppa := s.allocPage()
	s.l2p[lpa] = ppa
	s.p2l[ppa] = lpa
	blk := &s.blocks[ppa/int64(s.cfg.PagesPerBlock)]
	blk.validCount++
	s.opClock++
	blk.lastWrite = s.opClock
	s.livePages++
	lat += s.cfg.ProgramLatency
	return lat, nil
}

// ensureSpace runs garbage collection when the free-block pool reaches
// the low watermark, refilling it to the high watermark and charging the
// cost to the caller. The low watermark (>= 2) guarantees GC relocation
// never exhausts the free list mid-collection.
func (s *SSD) ensureSpace() (sim.Time, error) {
	if len(s.free) > s.cfg.GCLowBlocks {
		return 0, nil
	}
	lat := sim.Time(0)
	for len(s.free) < s.cfg.GCHighBlocks {
		gcLat, ok := s.collectOne()
		lat += gcLat
		if !ok {
			// Nothing reclaimable right now. Keep serving only while at
			// least one block's worth of raw room remains beyond this
			// write: if the free list ever drained completely, a later
			// collection could not relocate its victim's valid pages.
			if s.roomLeft() > int64(s.cfg.PagesPerBlock) {
				return lat, nil
			}
			return lat, ErrFull
		}
	}
	return lat, nil
}

// roomLeft returns the number of raw page slots available for programs
// without reclaiming anything.
func (s *SSD) roomLeft() int64 {
	room := int64(s.cfg.PagesPerBlock - s.blocks[s.active].writePtr)
	if s.gcActive >= 0 {
		room += int64(s.cfg.PagesPerBlock - s.blocks[s.gcActive].writePtr)
	}
	return int64(len(s.free))*int64(s.cfg.PagesPerBlock) + room
}

func (s *SSD) activeHasRoom() bool {
	return s.blocks[s.active].writePtr < s.cfg.PagesPerBlock
}

// collectOne erases the closed block with the fewest valid pages,
// relocating its live pages. It reports false when no closed block
// exists or the best victim has no reclaimable space (fully valid).
func (s *SSD) collectOne() (sim.Time, bool) {
	victim := s.pickVictim()
	if victim < 0 {
		return 0, false
	}
	b := &s.blocks[victim]
	if b.validCount == s.cfg.PagesPerBlock {
		// Erasing a fully valid block frees nothing; the device is
		// effectively out of reclaimable space.
		return 0, false
	}
	s.bucketRemove(victim)

	valid := b.validCount
	validRatio := float64(valid) / float64(s.cfg.PagesPerBlock)
	s.stats.victimValidSum += validRatio

	lat := sim.Time(0)
	if valid > 0 {
		base := int64(victim) * int64(s.cfg.PagesPerBlock)
		for off := int64(0); off < int64(s.cfg.PagesPerBlock); off++ {
			ppa := base + off
			lpa := s.p2l[ppa]
			if lpa == invalidPPA {
				continue
			}
			// Relocate: read + program into the active frontier.
			lat += s.cfg.ReadLatency
			dst := s.allocPageForGC(victim)
			s.p2l[ppa] = invalidPPA
			s.l2p[lpa] = dst
			s.p2l[dst] = lpa
			dblk := &s.blocks[dst/int64(s.cfg.PagesPerBlock)]
			dblk.validCount++
			s.opClock++
			dblk.lastWrite = s.opClock
			lat += s.cfg.ProgramLatency
			s.stats.GCPageMoves++
		}
		b.validCount = 0
	}

	// Erase the victim.
	b.state = blockFree
	b.writePtr = 0
	s.free = append(s.free, victim)
	s.stats.Erases++
	lat += s.cfg.EraseLatency
	if s.probe != nil {
		s.probe.OnErase(validRatio, valid)
	}
	return lat, true
}

// pickVictim returns the victim block under the configured policy, or
// -1 when no closed block exists.
func (s *SSD) pickVictim() int32 {
	if s.cfg.GCPolicy == GCCostBenefit {
		return s.pickVictimCostBenefit()
	}
	for v := 0; v <= s.cfg.PagesPerBlock; v++ {
		if n := len(s.buckets[v]); n > 0 {
			return s.buckets[v][n-1]
		}
	}
	return -1
}

// pickVictimCostBenefit maximises the LFS cleaner score
// age·(1−u)/(2u) over closed blocks. Fully invalid blocks (u = 0) are
// always best; fully valid blocks are never chosen unless nothing else
// is closed (the caller then reports no reclaimable space).
func (s *SSD) pickVictimCostBenefit() int32 {
	if n := len(s.buckets[0]); n > 0 {
		return s.buckets[0][n-1]
	}
	best := int32(-1)
	bestScore := -1.0
	np := float64(s.cfg.PagesPerBlock)
	for v := 1; v <= s.cfg.PagesPerBlock; v++ {
		for _, id := range s.buckets[v] {
			u := float64(v) / np
			if u >= 1 {
				continue
			}
			age := float64(s.opClock - s.blocks[id].lastWrite)
			score := age * (1 - u) / (2 * u)
			if score > bestScore {
				best, bestScore = id, score
			}
		}
	}
	if best < 0 {
		// Only fully valid blocks remain: fall back to one so the
		// caller's no-progress check fires.
		if n := len(s.buckets[s.cfg.PagesPerBlock]); n > 0 {
			return s.buckets[s.cfg.PagesPerBlock][n-1]
		}
	}
	return best
}

// allocPage returns the next free physical page, rotating the active
// block when it fills. Callers must have ensured space.
func (s *SSD) allocPage() int64 {
	if !s.activeHasRoom() {
		s.closeActive()
		s.active = s.popFree()
		s.blocks[s.active].state = blockActive
	}
	b := &s.blocks[s.active]
	ppa := int64(s.active)*int64(s.cfg.PagesPerBlock) + int64(b.writePtr)
	b.writePtr++
	return ppa
}

// allocPageForGC allocates a destination page during collection of
// victim. It never selects the victim itself and is guaranteed room by
// the free-list invariants (GC keeps at least one free block).
func (s *SSD) allocPageForGC(victim int32) int64 {
	frontier := &s.active
	if s.gcActive >= 0 {
		frontier = &s.gcActive
	}
	if s.blocks[*frontier].writePtr >= s.cfg.PagesPerBlock {
		s.closeFrontier(*frontier)
		next := s.popFree()
		if next == victim {
			// Cannot happen — the victim is removed from buckets, not
			// the free list — but guard the invariant loudly.
			panic("flash: GC allocated the victim block")
		}
		*frontier = next
		s.blocks[*frontier].state = blockActive
	}
	b := &s.blocks[*frontier]
	ppa := int64(*frontier)*int64(s.cfg.PagesPerBlock) + int64(b.writePtr)
	b.writePtr++
	return ppa
}

func (s *SSD) closeActive() { s.closeFrontier(s.active) }

func (s *SSD) closeFrontier(id int32) {
	s.blocks[id].state = blockClosed
	s.bucketAdd(id)
}

func (s *SSD) popFree() int32 {
	if len(s.free) == 0 {
		panic("flash: free list empty")
	}
	id := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return id
}

// invalidate marks the physical page invalid, updating its block's
// bucket membership if the block is closed.
func (s *SSD) invalidate(ppa int64) {
	s.p2l[ppa] = invalidPPA
	id := int32(ppa / int64(s.cfg.PagesPerBlock))
	b := &s.blocks[id]
	if b.validCount <= 0 {
		panic("flash: invalidating page in block with no valid pages")
	}
	if b.state == blockClosed {
		s.bucketRemove(id)
		b.validCount--
		s.bucketAdd(id)
	} else {
		b.validCount--
	}
}

func (s *SSD) bucketAdd(id int32) {
	b := &s.blocks[id]
	bucket := &s.buckets[b.validCount]
	b.bucketPos = len(*bucket)
	*bucket = append(*bucket, id)
}

func (s *SSD) bucketRemove(id int32) {
	b := &s.blocks[id]
	bucket := s.buckets[b.validCount]
	pos := b.bucketPos
	last := len(bucket) - 1
	if bucket[pos] != id {
		panic("flash: bucket bookkeeping corrupted")
	}
	bucket[pos] = bucket[last]
	s.blocks[bucket[pos]].bucketPos = pos
	s.buckets[b.validCount] = bucket[:last]
}

// CheckInvariants verifies internal consistency; tests call it after
// randomized operation sequences.
func (s *SSD) CheckInvariants() error {
	var live int64
	for lpa, ppa := range s.l2p {
		if ppa == unmapped {
			continue
		}
		live++
		if s.p2l[ppa] != int64(lpa) {
			return fmt.Errorf("flash: l2p[%d]=%d but p2l[%d]=%d", lpa, ppa, ppa, s.p2l[ppa])
		}
	}
	if live != s.livePages {
		return fmt.Errorf("flash: livePages=%d but %d mapped LPAs", s.livePages, live)
	}
	validByBlock := make([]int, s.cfg.Blocks)
	for ppa, lpa := range s.p2l {
		if lpa != invalidPPA {
			validByBlock[ppa/s.cfg.PagesPerBlock]++
		}
	}
	closed := 0
	for id := range s.blocks {
		b := &s.blocks[id]
		if b.validCount != validByBlock[id] {
			return fmt.Errorf("flash: block %d validCount=%d, actual %d", id, b.validCount, validByBlock[id])
		}
		if b.state == blockClosed {
			closed++
			bucket := s.buckets[b.validCount]
			if b.bucketPos >= len(bucket) || bucket[b.bucketPos] != int32(id) {
				return fmt.Errorf("flash: block %d missing from bucket %d", id, b.validCount)
			}
		}
		if b.state == blockFree && b.validCount != 0 {
			return fmt.Errorf("flash: free block %d has %d valid pages", id, b.validCount)
		}
	}
	inBuckets := 0
	for _, bucket := range s.buckets {
		inBuckets += len(bucket)
	}
	if inBuckets != closed {
		return fmt.Errorf("flash: %d blocks in buckets, %d closed", inBuckets, closed)
	}
	frontiers := 1
	if s.gcActive >= 0 {
		frontiers = 2
	}
	if len(s.free)+closed+frontiers != s.cfg.Blocks {
		return fmt.Errorf("flash: free=%d closed=%d frontiers=%d, want total %d", len(s.free), closed, frontiers, s.cfg.Blocks)
	}
	return nil
}
