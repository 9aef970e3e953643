package flash

import (
	"errors"
	"math/rand"
	"testing"

	"edm/internal/sim"
)

// tiny returns a small SSD: 16 blocks × 8 pages = 128 pages.
func tiny(t *testing.T) *SSD {
	t.Helper()
	s, err := New(Config{
		PageSize:      4096,
		PagesPerBlock: 8,
		Blocks:        16,
		GCLowBlocks:   2,
		GCHighBlocks:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(10 << 20) // 10MB
	if cfg.PageSize != 4096 || cfg.PagesPerBlock != 32 {
		t.Fatalf("paper geometry expected: %+v", cfg)
	}
	if cfg.Blocks != 80 {
		t.Fatalf("10MB / 128KB = 80 blocks, got %d", cfg.Blocks)
	}
	if cfg.ReadLatency != 25*sim.Microsecond ||
		cfg.ProgramLatency != 200*sim.Microsecond ||
		cfg.EraseLatency != 2*sim.Millisecond {
		t.Fatalf("paper latencies expected: %+v", cfg)
	}
	if _, err := New(cfg); err != nil {
		t.Fatalf("default config must validate: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{PageSize: -1, PagesPerBlock: 8, Blocks: 16},
		{PageSize: 4096, PagesPerBlock: -8, Blocks: 16},
		{PageSize: 4096, PagesPerBlock: 8, Blocks: 2},
		{PageSize: 4096, PagesPerBlock: 8, Blocks: 16, GCLowBlocks: 1, GCHighBlocks: 3},
		{PageSize: 4096, PagesPerBlock: 8, Blocks: 16, GCLowBlocks: 4, GCHighBlocks: 4},
		{PageSize: 4096, PagesPerBlock: 8, Blocks: 16, GCLowBlocks: 2, GCHighBlocks: 15},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d should be rejected: %+v", i, cfg)
		}
	}
}

func TestGeometryAccessors(t *testing.T) {
	s := tiny(t)
	if s.TotalPages() != 128 {
		t.Fatalf("TotalPages = %d", s.TotalPages())
	}
	if s.TotalBytes() != 128*4096 {
		t.Fatalf("TotalBytes = %d", s.TotalBytes())
	}
	// Reserve = (high+1) blocks = 5 blocks = 40 pages.
	if s.MaxLivePages() != 128-40 {
		t.Fatalf("MaxLivePages = %d", s.MaxLivePages())
	}
}

func TestWriteReadTrimLatencies(t *testing.T) {
	s := tiny(t)
	lat, err := s.Write(0)
	if err != nil {
		t.Fatal(err)
	}
	if lat != DefaultProgramLatency {
		t.Fatalf("first write latency %v", lat)
	}
	if got := s.Read(0); got != DefaultReadLatency {
		t.Fatalf("read latency %v", got)
	}
	if s.l2p[0] == unmapped {
		t.Fatal("page 0 should be mapped")
	}
	s.Trim(0)
	if s.l2p[0] != unmapped {
		t.Fatal("page 0 should be unmapped after trim")
	}
	st := s.Stats()
	if st.HostPageWrites != 1 || st.HostPageReads != 1 || st.TrimmedPages != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTrimUnmappedIsNoop(t *testing.T) {
	s := tiny(t)
	s.Trim(5)
	if s.Stats().TrimmedPages != 0 {
		t.Fatal("trimming an unmapped page should not count")
	}
}

func TestUtilizationTracksLivePages(t *testing.T) {
	s := tiny(t)
	for i := int64(0); i < 64; i++ {
		if _, err := s.Write(i); err != nil {
			t.Fatal(err)
		}
	}
	if s.LivePages() != 64 {
		t.Fatalf("LivePages = %d", s.LivePages())
	}
	if got := s.Utilization(); got != 0.5 {
		t.Fatalf("Utilization = %v", got)
	}
	// Overwrites don't change the live count.
	if _, err := s.Write(0); err != nil {
		t.Fatal(err)
	}
	if s.LivePages() != 64 {
		t.Fatalf("LivePages after overwrite = %d", s.LivePages())
	}
}

func TestOverwritesTriggerGC(t *testing.T) {
	s := tiny(t)
	// Fill half the logical space, then overwrite it many times.
	for i := int64(0); i < 64; i++ {
		if _, err := s.Write(i); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 20; round++ {
		for i := int64(0); i < 64; i++ {
			if _, err := s.Write(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if st.Erases == 0 {
		t.Fatal("sustained overwrites must trigger garbage collection")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGCLatencyChargedToWrite(t *testing.T) {
	s := tiny(t)
	for i := int64(0); i < 64; i++ {
		if _, err := s.Write(i); err != nil {
			t.Fatal(err)
		}
	}
	var sawGCCharge bool
	for round := 0; round < 30 && !sawGCCharge; round++ {
		for i := int64(0); i < 64; i++ {
			lat, err := s.Write(i)
			if err != nil {
				t.Fatal(err)
			}
			if lat >= DefaultEraseLatency {
				sawGCCharge = true
				break
			}
		}
	}
	if !sawGCCharge {
		t.Fatal("no write was ever charged a GC stall")
	}
}

// Erase count should match Eq.(1): E_c = W_c / (N_p · (1−u_r)) with the
// measured victim ratio, in steady state.
func TestEraseCountMatchesEquationOne(t *testing.T) {
	s := tiny(t)
	live := int64(64)
	for i := int64(0); i < live; i++ {
		if _, err := s.Write(i); err != nil {
			t.Fatal(err)
		}
	}
	// Warm into steady state.
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		if _, err := s.Write(rnd.Int63n(live)); err != nil {
			t.Fatal(err)
		}
	}
	s.ResetStats()
	for i := 0; i < 4000; i++ {
		if _, err := s.Write(rnd.Int63n(live)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	np := float64(s.Config().PagesPerBlock)
	predicted := float64(st.HostPageWrites) / (np * (1 - st.VictimValidRatio()))
	ratio := float64(st.Erases) / predicted
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("Eq.(1) mismatch: erases=%d predicted=%v (ur=%v)", st.Erases, predicted, st.VictimValidRatio())
	}
}

func TestWriteAmplificationAtLeastOne(t *testing.T) {
	s := tiny(t)
	if wa := s.Stats().WriteAmplification(); wa != 1 {
		t.Fatalf("WA before writes = %v", wa)
	}
	rnd := rand.New(rand.NewSource(2))
	for i := int64(0); i < 70; i++ {
		if _, err := s.Write(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i++ {
		if _, err := s.Write(rnd.Int63n(70)); err != nil {
			t.Fatal(err)
		}
	}
	if wa := s.Stats().WriteAmplification(); wa < 1 {
		t.Fatalf("WA = %v < 1", wa)
	}
}

// Higher utilization must produce a higher measured victim valid ratio
// under uniform random overwrites — the relation Fig. 3 is built on.
func TestVictimRatioGrowsWithUtilization(t *testing.T) {
	measure := func(live int64) float64 {
		s, err := New(Config{PageSize: 4096, PagesPerBlock: 16, Blocks: 64, GCLowBlocks: 2, GCHighBlocks: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < live; i++ {
			if _, err := s.Write(i); err != nil {
				t.Fatal(err)
			}
		}
		rnd := rand.New(rand.NewSource(7))
		for i := int64(0); i < 4*s.TotalPages(); i++ {
			if _, err := s.Write(rnd.Int63n(live)); err != nil {
				t.Fatal(err)
			}
		}
		s.ResetStats()
		for i := int64(0); i < 4*s.TotalPages(); i++ {
			if _, err := s.Write(rnd.Int63n(live)); err != nil {
				t.Fatal(err)
			}
		}
		return s.Stats().VictimValidRatio()
	}
	low := measure(256)  // 25% utilization
	high := measure(716) // ~70% utilization
	if high <= low {
		t.Fatalf("u_r should grow with utilization: low=%v high=%v", low, high)
	}
}

// Overfilling the device with never-invalidated data must degrade
// gracefully: the device refuses writes (ErrFull) while it still holds
// one block of raw room in reserve — never paint itself into a state
// where GC cannot relocate a victim — and keeps absorbing overwrites of
// the live set afterwards.
func TestOverfillDegradesGracefully(t *testing.T) {
	s := tiny(t)
	var live int64
	var sawFull bool
	for i := int64(0); i < s.TotalPages(); i++ {
		if _, err := s.Write(i); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("fill write %d: unexpected error %v", i, err)
			}
			sawFull = true
			break
		}
		live++
	}
	if !sawFull {
		t.Fatal("filling every page should eventually hit the reserve")
	}
	// The reserve is at most two blocks of pages.
	if min := s.TotalPages() - 2*int64(s.Config().PagesPerBlock); live < min {
		t.Fatalf("device refused too early: live %d < %d", live, min)
	}
	// At this fill level overwrites may be individually refused (the
	// lone invalid page can sit in the unreclaimable active block), but
	// the device must never panic or corrupt its bookkeeping.
	rnd := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		if _, err := s.Write(rnd.Int63n(live)); err != nil && !errors.Is(err, ErrFull) {
			t.Fatalf("unexpected error class: %v", err)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Freeing a little space restores full write service.
	for i := int64(0); i < 2*int64(s.Config().PagesPerBlock); i++ {
		s.Trim(i)
	}
	for i := 0; i < 2000; i++ {
		if _, err := s.Write(2*int64(s.Config().PagesPerBlock) + rnd.Int63n(live/2)); err != nil {
			t.Fatalf("overwrite after trim: %v", err)
		}
	}
	if wa := s.Stats().WriteAmplification(); wa < 2 {
		t.Fatalf("WA on a nearly full device should be brutal, got %v", wa)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMaxLivePagesIsSafe(t *testing.T) {
	s := tiny(t)
	// Fill exactly to MaxLivePages, then overwrite heavily: no ErrFull.
	live := s.MaxLivePages()
	for i := int64(0); i < live; i++ {
		if _, err := s.Write(i); err != nil {
			t.Fatalf("fill to MaxLivePages failed at %d: %v", i, err)
		}
	}
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		if _, err := s.Write(rnd.Int63n(live)); err != nil {
			t.Fatalf("overwrite at MaxLivePages failed: %v", err)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestResetStats(t *testing.T) {
	s := tiny(t)
	if _, err := s.Write(0); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	st := s.Stats()
	if st.HostPageWrites != 0 || st.Erases != 0 {
		t.Fatalf("stats after reset: %+v", st)
	}
	if s.LivePages() != 1 {
		t.Fatal("ResetStats must not touch device state")
	}
}

func TestWriteNReadNTrimN(t *testing.T) {
	s := tiny(t)
	lat, err := s.WriteN(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 5*DefaultProgramLatency {
		t.Fatalf("WriteN latency %v", lat)
	}
	if lat := s.ReadN(10, 5); lat != 5*DefaultReadLatency {
		t.Fatalf("ReadN latency %v", lat)
	}
	s.TrimN(10, 5)
	if s.LivePages() != 0 {
		t.Fatalf("LivePages after TrimN = %d", s.LivePages())
	}
}

func TestLPARangePanics(t *testing.T) {
	s := tiny(t)
	for _, fn := range []func(){
		func() { _, _ = s.Write(-1) },
		func() { _ = s.Read(s.TotalPages()) },
		func() { s.Trim(1 << 40) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range LPA must panic")
				}
			}()
			fn()
		}()
	}
}

// Property-style fuzz: random interleavings of write/trim keep every
// internal invariant intact and never double-free.
func TestRandomOpsPreserveInvariants(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s, err := New(Config{PageSize: 512, PagesPerBlock: 4, Blocks: 32, GCLowBlocks: 2, GCHighBlocks: 5})
		if err != nil {
			t.Fatal(err)
		}
		rnd := rand.New(rand.NewSource(seed))
		maxLive := s.MaxLivePages()
		for op := 0; op < 5000; op++ {
			lpa := rnd.Int63n(maxLive)
			switch rnd.Intn(3) {
			case 0, 1:
				if _, err := s.Write(lpa); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			case 2:
				s.Trim(lpa)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// Determinism: the same op sequence yields the same stats.
func TestFlashDeterminism(t *testing.T) {
	run := func() Stats {
		s := MustNew(Config{PageSize: 512, PagesPerBlock: 4, Blocks: 32, GCLowBlocks: 2, GCHighBlocks: 5})
		rnd := rand.New(rand.NewSource(99))
		for op := 0; op < 3000; op++ {
			lpa := rnd.Int63n(s.MaxLivePages())
			if rnd.Intn(4) == 0 {
				s.Trim(lpa)
			} else if _, err := s.Write(lpa); err != nil {
				t.Fatal(err)
			}
		}
		return s.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic flash: %+v vs %+v", a, b)
	}
}

func TestGreedyPicksLeastValidVictim(t *testing.T) {
	// Construct a state where block A is fully invalid and block B
	// fully valid; GC must erase A (0 moves) rather than relocate B.
	s := MustNew(Config{PageSize: 512, PagesPerBlock: 4, Blocks: 8, GCLowBlocks: 2, GCHighBlocks: 3})
	// Write 8 pages: fills blocks 0 and 1.
	for i := int64(0); i < 8; i++ {
		if _, err := s.Write(i); err != nil {
			t.Fatal(err)
		}
	}
	// Invalidate the first block's pages entirely by overwriting 0–3.
	for i := int64(0); i < 4; i++ {
		if _, err := s.Write(i); err != nil {
			t.Fatal(err)
		}
	}
	// Force GC by consuming the remaining space.
	var lastErr error
	before := s.Stats().GCPageMoves
	for i := int64(8); i < s.TotalPages() && s.Stats().Erases == 0; i++ {
		_, lastErr = s.Write(i % s.MaxLivePages())
		if lastErr != nil {
			break
		}
	}
	if s.Stats().Erases == 0 {
		t.Fatal("GC never ran")
	}
	// The first collections should have found empty victims (the fully
	// invalidated block) and moved zero pages.
	if moves := s.Stats().GCPageMoves - before; moves > 4 {
		t.Fatalf("greedy GC relocated %d pages; expected the empty block first", moves)
	}
}
