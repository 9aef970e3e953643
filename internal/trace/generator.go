// Synthetic workload generation.
//
// Each profile reproduces one row of Table I exactly in its aggregate
// characteristics (file count, write/read operation counts, mean request
// sizes) and adds the distributional shape parameters the paper
// documents qualitatively: Zipfian access popularity ("a large body of
// the writes might go to a small part of the data set" [16]), distinct
// read-hot and write-hot file sets (reads and writes have different
// localities), lognormal file sizes ("heavily skewed object size
// distribution", §II), and temporal locality (runs of operations against
// the same file, §III.B.3).

package trace

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"edm/internal/rng"
)

// Profile parameterises a synthetic workload.
type Profile struct {
	Name string

	// Table I characteristics.
	FileCount    int
	WriteCount   int
	AvgWriteSize int64 // bytes
	ReadCount    int
	AvgReadSize  int64 // bytes

	// Shape parameters (not in Table I; documented in DESIGN.md).
	Users        int     // distinct users sharded across clients
	WriteSkew    float64 // Zipf exponent of write popularity
	ReadSkew     float64 // Zipf exponent of read popularity
	MeanFileSize int64   // bytes; lognormal mean
	FileSizeCV   float64 // coefficient of variation of file sizes
	RepeatProb   float64 // P(next op hits the same file) — temporal locality

	// ReadWriteAffinity in [0,1] correlates the read-hot and write-hot
	// file orderings: 1 makes them identical (recently written data is
	// what gets read — strong temporal locality across op types), 0
	// makes them independent. Real NFS workloads sit high on this
	// scale [14]; it is what lets wear balancing also balance total
	// load (§II).
	ReadWriteAffinity float64

	// ZipfOffset is the Zipf–Mandelbrot head-flattening offset q: the
	// popularity of rank r is ∝ 1/(r+1+q)^skew. Measured file
	// popularity has a flattened head — no single file carries >~2% of
	// the traffic — which is also what makes heat divisible enough for
	// migration to balance it.
	ZipfOffset float64

	// WriteWorkingSet in (0,1] confines each file's writes to its first
	// fraction of bytes (reads roam the whole file). Real workloads
	// rewrite a small page working set — "most page writes may go to a
	// relatively small portion of the objects" [16] — which separates
	// hot from cold pages across flash blocks and drives the measured
	// victim valid ratio far below the uniform-random Eq.(2) estimate
	// (the Fig. 3 effect that σ corrects for). 0 means 1 (whole file).
	WriteWorkingSet float64

	// PopularityDrift is the fraction of popularity-ranking positions
	// reshuffled over the course of the trace (applied in ten gradual
	// increments). Real multi-week NFS traces are non-stationary: the
	// hot set moves. Drift is what separates EDM's exponentially
	// decayed temperatures (Def. 1, which track the current hot set)
	// from the undecayed counters conventional schemes keep.
	PopularityDrift float64

	// HotFileSizeBoost inflates the sizes of write-hot files:
	// the write-rank-r file's size is multiplied by
	// 1 + boost·p(r)/p(0). Actively written files (mailboxes, logs)
	// are bigger than cold ones, which produces the paper's observed
	// correlation between storage utilization and write intensity
	// (§V.C: "servers with larger disk usage ratio tend to have more
	// write requests sent to them").
	HotFileSizeBoost float64
}

// Validate reports profile errors.
func (p Profile) Validate() error {
	switch {
	case p.FileCount <= 0:
		return fmt.Errorf("trace: profile %q: non-positive file count", p.Name)
	case p.WriteCount < 0 || p.ReadCount < 0:
		return fmt.Errorf("trace: profile %q: negative op count", p.Name)
	case p.WriteCount+p.ReadCount == 0:
		return fmt.Errorf("trace: profile %q: no operations", p.Name)
	case p.Users <= 0:
		return fmt.Errorf("trace: profile %q: non-positive users", p.Name)
	case p.RepeatProb < 0 || p.RepeatProb >= 1:
		return fmt.Errorf("trace: profile %q: repeat probability %v out of [0,1)", p.Name, p.RepeatProb)
	case p.WriteSkew <= 0 || p.ReadSkew <= 0:
		return fmt.Errorf("trace: profile %q: non-positive Zipf skew", p.Name)
	case p.MeanFileSize <= 0:
		return fmt.Errorf("trace: profile %q: non-positive mean file size", p.Name)
	case p.ReadWriteAffinity < 0 || p.ReadWriteAffinity > 1:
		return fmt.Errorf("trace: profile %q: read/write affinity %v out of [0,1]", p.Name, p.ReadWriteAffinity)
	case p.WriteWorkingSet < 0 || p.WriteWorkingSet > 1:
		return fmt.Errorf("trace: profile %q: write working set %v out of (0,1]", p.Name, p.WriteWorkingSet)
	case p.PopularityDrift < 0 || p.PopularityDrift > 1:
		return fmt.Errorf("trace: profile %q: popularity drift %v out of [0,1]", p.Name, p.PopularityDrift)
	case p.HotFileSizeBoost < 0:
		return fmt.Errorf("trace: profile %q: negative hot-file size boost", p.Name)
	}
	return nil
}

// Scaled returns a copy with file and operation counts divided by
// factor (>= 1), preserving per-file access intensity. Experiments use
// this to trade fidelity for runtime; factor 1 is the full Table I
// workload.
func (p Profile) Scaled(factor int) Profile {
	if factor <= 1 {
		return p
	}
	q := p
	q.FileCount = maxInt(1, p.FileCount/factor)
	q.WriteCount = p.WriteCount / factor
	q.ReadCount = p.ReadCount / factor
	// The Zipf–Mandelbrot offset is a head width in files; shrink it
	// with the file count so the head keeps its relative share.
	q.ZipfOffset = p.ZipfOffset / float64(factor)
	if q.WriteCount+q.ReadCount == 0 {
		q.WriteCount = 1
	}
	return q
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Harvard workload profiles: Table I values verbatim, shape parameters
// chosen per trace family (home: email/research home directories with
// high read ratios and strong locality; deasna: research workloads with
// large requests; lair62: many small files with the heaviest skew — the
// family with the widest erase variance in Fig. 1).
var profiles = []Profile{
	{Name: "home02", FileCount: 10931, WriteCount: 730602, AvgWriteSize: 8048, ReadCount: 3497486, AvgReadSize: 8191,
		Users: 256, WriteSkew: 1.15, ReadSkew: 1.05, MeanFileSize: 512 << 10, FileSizeCV: 2.0, RepeatProb: 0.70,
		ReadWriteAffinity: 0.90, HotFileSizeBoost: 1.5, ZipfOffset: 25, WriteWorkingSet: 0.15, PopularityDrift: 0.15},
	{Name: "home03", FileCount: 8010, WriteCount: 355091, AvgWriteSize: 7938, ReadCount: 2624676, AvgReadSize: 8190,
		Users: 256, WriteSkew: 1.05, ReadSkew: 1.05, MeanFileSize: 512 << 10, FileSizeCV: 2.0, RepeatProb: 0.70,
		ReadWriteAffinity: 0.90, HotFileSizeBoost: 1.2, ZipfOffset: 25, WriteWorkingSet: 0.15, PopularityDrift: 0.15},
	{Name: "home04", FileCount: 7798, WriteCount: 358976, AvgWriteSize: 8013, ReadCount: 2034078, AvgReadSize: 8192,
		Users: 256, WriteSkew: 1.05, ReadSkew: 1.05, MeanFileSize: 512 << 10, FileSizeCV: 2.0, RepeatProb: 0.70,
		ReadWriteAffinity: 0.90, HotFileSizeBoost: 1.2, ZipfOffset: 25, WriteWorkingSet: 0.15, PopularityDrift: 0.15},
	{Name: "deasna", FileCount: 9727, WriteCount: 232481, AvgWriteSize: 24167, ReadCount: 271619, AvgReadSize: 23869,
		Users: 128, WriteSkew: 0.90, ReadSkew: 0.90, MeanFileSize: 768 << 10, FileSizeCV: 1.5, RepeatProb: 0.60,
		ReadWriteAffinity: 0.80, HotFileSizeBoost: 1.0, ZipfOffset: 10, WriteWorkingSet: 0.35, PopularityDrift: 0.10},
	{Name: "deasna2", FileCount: 8405, WriteCount: 269936, AvgWriteSize: 18489, ReadCount: 372750, AvgReadSize: 20529,
		Users: 128, WriteSkew: 0.90, ReadSkew: 0.90, MeanFileSize: 768 << 10, FileSizeCV: 1.5, RepeatProb: 0.60,
		ReadWriteAffinity: 0.80, HotFileSizeBoost: 1.0, ZipfOffset: 10, WriteWorkingSet: 0.35, PopularityDrift: 0.10},
	{Name: "lair62", FileCount: 19088, WriteCount: 740831, AvgWriteSize: 5415, ReadCount: 890680, AvgReadSize: 7264,
		Users: 192, WriteSkew: 1.25, ReadSkew: 1.10, MeanFileSize: 256 << 10, FileSizeCV: 2.5, RepeatProb: 0.65,
		ReadWriteAffinity: 0.85, HotFileSizeBoost: 1.8, ZipfOffset: 15, WriteWorkingSet: 0.20, PopularityDrift: 0.20},
	{Name: "lair62b", FileCount: 27228, WriteCount: 409215, AvgWriteSize: 5496, ReadCount: 736469, AvgReadSize: 7612,
		Users: 192, WriteSkew: 1.25, ReadSkew: 1.10, MeanFileSize: 256 << 10, FileSizeCV: 2.5, RepeatProb: 0.65,
		ReadWriteAffinity: 0.85, HotFileSizeBoost: 1.8, ZipfOffset: 15, WriteWorkingSet: 0.20, PopularityDrift: 0.20},
}

// ErrUnknownProfile tags workload-name lookup failures across the
// stack; edm.ErrUnknownWorkload re-exports it, so errors.Is works the
// same whether the lookup failed in the library, an experiment, or the
// serving layer.
var ErrUnknownProfile = errors.New("unknown workload profile")

// LookupProfile returns the named Harvard profile.
func LookupProfile(name string) (Profile, bool) {
	for _, p := range profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// ProfileNames lists the built-in Harvard profiles in paper order.
func ProfileNames() []string {
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.Name
	}
	return names
}

// Profiles returns copies of all built-in Harvard profiles.
func Profiles() []Profile { return append([]Profile(nil), profiles...) }

// RandomProfile returns the synthetic uniformly random workload of Fig.
// 3: no popularity skew, no locality, request sizes uniform in
// [4KB, 16KB].
func RandomProfile(fileCount, ops int) Profile {
	return Profile{
		Name:      "random",
		FileCount: fileCount,
		// Reads don't affect wear; the random workload is write-only.
		WriteCount:   ops,
		AvgWriteSize: 10 << 10, // uniform 4–16KB → mean 10KB
		ReadCount:    0,
		AvgReadSize:  0,
		Users:        8,
		WriteSkew:    1e-6, // effectively uniform (see Generate)
		ReadSkew:     1e-6,
		MeanFileSize: 128 << 10,
		FileSizeCV:   0.3,
		RepeatProb:   0,
	}
}

// Workload returns the profile a workload name selects: a Table I
// profile, or "random" — the Fig. 3 uniformly random workload at the
// size every replay of it uses. It is the one workload name → profile
// mapping. An unknown name wraps ErrUnknownProfile and lists every
// valid one.
func Workload(name string) (Profile, error) {
	if name == "random" {
		return RandomProfile(2000, 400000), nil
	}
	if p, ok := LookupProfile(name); ok {
		return p, nil
	}
	return Profile{}, fmt.Errorf("unknown workload %q (valid: %s, random): %w",
		name, strings.Join(ProfileNames(), ", "), ErrUnknownProfile)
}

// userState carries one user's temporal-locality context.
type userState struct {
	file    FileID
	kind    OpKind
	cursor  int64 // sequential offset within the current run
	hasFile bool
}

// Generate synthesises a trace from the profile, deterministically in
// (profile, seed).
func Generate(p Profile, seed uint64) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(seed)
	sizeStream := root.Split(1)
	popStream := root.Split(2)
	opStream := root.Split(3)

	t := &Trace{Name: p.Name, Users: p.Users}

	// Files: lognormal sizes, floor at 8 write requests so request
	// offsets have room to wander within a file.
	minSize := 8 * p.AvgWriteSize
	if p.AvgWriteSize == 0 {
		minSize = 64 << 10
	}
	t.Files = make([]FileInfo, p.FileCount)
	for i := range t.Files {
		size := int64(sizeStream.LognormalMean(float64(p.MeanFileSize), p.FileSizeCV))
		if size < minSize {
			size = minSize
		}
		t.Files[i] = FileInfo{ID: FileID(i), Size: size}
	}

	// Popularity: the write-hot ordering is a random permutation; the
	// read-hot ordering shares a ReadWriteAffinity fraction of it and
	// scrambles the rest, so an OSD can be write-hot without being
	// read-hot (the asymmetry HDF exploits) while recently-written data
	// still dominates the read set.
	writePerm := popStream.Perm(p.FileCount)
	readPerm := scramblePerm(writePerm, 1-p.ReadWriteAffinity, popStream)
	writeZipf := rng.NewZipfMandelbrot(p.FileCount, zipfSkew(p.WriteSkew), p.ZipfOffset)
	readZipf := rng.NewZipfMandelbrot(p.FileCount, zipfSkew(p.ReadSkew), p.ZipfOffset)

	// Write-hot files are bigger (HotFileSizeBoost), correlating
	// storage utilization with write intensity as observed in §V.C.
	if p.HotFileSizeBoost > 0 {
		p0 := writeZipf.ProbAt(0)
		for rank := 0; rank < p.FileCount; rank++ {
			f := writePerm[rank]
			mult := 1 + p.HotFileSizeBoost*writeZipf.ProbAt(rank)/p0
			t.Files[f].Size = int64(float64(t.Files[f].Size) * mult)
		}
	}

	total := p.WriteCount + p.ReadCount
	writeLeft, readLeft := p.WriteCount, p.ReadCount
	users := make([]userState, p.Users)
	t.Records = make([]Record, 0, recordCapacity(p, total))

	// Popularity drift: at ten checkpoints across the trace, swap rank
	// positions in both permutations (the same positions, preserving
	// the read/write affinity) so the hot set migrates gradually.
	driftEvery := total + 1
	driftSwaps := 0
	if p.PopularityDrift > 0 && p.FileCount > 1 {
		driftEvery = total / 10
		if driftEvery == 0 {
			driftEvery = 1
		}
		driftSwaps = int(p.PopularityDrift * float64(p.FileCount) / 2 / 10)
		if driftSwaps == 0 {
			driftSwaps = 1
		}
	}

	for i := 0; i < total; i++ {
		if driftEvery <= total && i > 0 && i%driftEvery == 0 {
			for s := 0; s < driftSwaps; s++ {
				a := opStream.Intn(p.FileCount)
				b := opStream.Intn(p.FileCount)
				writePerm[a], writePerm[b] = writePerm[b], writePerm[a]
				readPerm[a], readPerm[b] = readPerm[b], readPerm[a]
			}
		}
		// Interleave writes and reads in proportion to what remains,
		// so both counts land exactly on Table I.
		var kind OpKind
		if opStream.Int63n(int64(writeLeft+readLeft)) < int64(writeLeft) {
			kind = OpWrite
			writeLeft--
		} else {
			kind = OpRead
			readLeft--
		}

		user := int32(opStream.Intn(p.Users))
		us := &users[user]

		var file FileID
		if us.hasFile && opStream.Float64() < p.RepeatProb {
			file = us.file // temporal locality: stay on the run
		} else {
			var rank int
			if kind == OpWrite {
				rank = writePerm[writeZipf.Sample(opStream)]
			} else {
				rank = readPerm[readZipf.Sample(opStream)]
			}
			file = FileID(rank)
			if us.hasFile {
				t.Records = append(t.Records, Record{User: user, File: us.file, Kind: OpClose})
			}
			t.Records = append(t.Records, Record{User: user, File: file, Kind: OpOpen})
			us.file = file
			us.hasFile = true
			us.cursor = opStream.Int63n(t.Files[file].Size)
		}

		size := requestSize(opStream, kind, p)
		fsize := t.Files[file].Size
		// Sequential within the run; writes wrap within the file's
		// write working set, reads within the whole file.
		limit := fsize
		if kind == OpWrite && p.WriteWorkingSet > 0 && p.WriteWorkingSet < 1 {
			limit = int64(float64(fsize) * p.WriteWorkingSet)
			if limit < size {
				limit = size
			}
		}
		if us.cursor+size > limit {
			us.cursor = 0
		}
		off := us.cursor
		us.cursor += size
		t.Records = append(t.Records, Record{
			User: user, File: file, Kind: kind, Offset: off, Size: size,
		})
	}
	// Close any files still open.
	for u := range users {
		if users[u].hasFile {
			t.Records = append(t.Records, Record{User: int32(u), File: users[u].file, Kind: OpClose})
		}
	}
	return t, nil
}

// recordCapacity sizes Generate's record slice once, so that it never
// regrows: every operation is one record, and every switch to another
// file adds an open plus a close (immediately, or at the end of the
// trace). A user's first operation always switches and a later one
// switches with probability 1−RepeatProb, so the switches number at
// most Users plus a binomial around (1−RepeatProb)·ops; the 2 % and
// constant margins cover its spread (TestGenerateNeverRegrows checks
// every built-in profile over a range of scales and seeds).
func recordCapacity(p Profile, ops int) int {
	reopens := math.Ceil(2 * (1 - p.RepeatProb) * float64(ops) * 1.02)
	return ops + int(reopens) + 2*p.Users + 64
}

// scramblePerm copies perm and re-shuffles a random fraction of its
// positions, leaving the rest aligned with the original. fraction 0
// returns a copy; fraction 1 is an independent permutation.
func scramblePerm(perm []int, fraction float64, s *rng.Stream) []int {
	out := append([]int(nil), perm...)
	n := len(out)
	k := int(fraction * float64(n))
	if k <= 1 {
		return out
	}
	// Choose k positions, then rotate their values through a shuffled
	// order (keeps out a valid permutation).
	pos := s.Perm(n)[:k]
	vals := make([]int, k)
	for i, p := range pos {
		vals[i] = out[p]
	}
	s.Shuffle(k, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	for i, p := range pos {
		out[p] = vals[i]
	}
	return out
}

// zipfSkew floors near-zero skews: rng.NewZipf needs s > 0, and a tiny
// positive s is indistinguishable from uniform.
func zipfSkew(s float64) float64 {
	return math.Max(s, 1e-6)
}

// requestSize samples a request size uniform in [avg/2, 3·avg/2], whose
// mean is exactly the Table I average. The random workload's 10KB mean
// yields the paper's 4–16KB range... approximately: we widen to
// [avg·0.4, avg·1.6] for it via the same formula with avg=10KB.
func requestSize(s *rng.Stream, kind OpKind, p Profile) int64 {
	avg := p.AvgWriteSize
	if kind == OpRead {
		avg = p.AvgReadSize
	}
	if avg <= 1 {
		return 1
	}
	lo, hi := avg/2, avg+avg/2
	if p.Name == "random" {
		lo, hi = 4<<10, 16<<10 // the paper's explicit 4–16KB range
	}
	if hi <= lo {
		return avg
	}
	return s.UniformRange(lo, hi)
}
