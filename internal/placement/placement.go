// Package placement implements EDM's hash-based object placement and SSD
// grouping (§III.A).
//
// Each file is split into k objects placed on k consecutive SSDs; the
// SSD of the first object is inode mod n. SSDs are partitioned into m
// groups where group g contains ssd g, g+m, g+2m, …, so any k ≤ m
// consecutive SSDs land in k distinct groups. Data migration is
// intra-group only, which preserves the RAID-5 reliability argument of
// §III.D: two objects of the same file never share a group, so
// simultaneous wear-out within one group cannot take out a stripe.
package placement

import (
	"fmt"
)

// Mode selects how a file's objects map to SSDs.
type Mode int

const (
	// ModeConsecutive is the paper's base rule: object idx of inode
	// lands on SSD (inode+idx) mod n. It requires n ≡ 0 (mod m) so the
	// k ≤ m consecutive SSDs always hit distinct groups.
	ModeConsecutive Mode = iota
	// ModeGroupRotate places object idx in group (inode+idx) mod m, on
	// a hash-selected member of that group. It tolerates unequal group
	// sizes — the §III.D wear-staggering configuration — while keeping
	// the one-object-per-group stripe property.
	ModeGroupRotate
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeGroupRotate {
		return "group-rotate"
	}
	return "consecutive"
}

// Layout describes a cluster's placement geometry.
type Layout struct {
	N    int  // total SSDs (OSDs)
	M    int  // number of groups
	K    int  // objects per file (RAID-5 stripe width, incl. parity)
	Mode Mode // placement rule

	// Sizes optionally assigns an explicit device count per group — the
	// §III.D wear-staggering configuration ("differentiating the number
	// of SSDs assigned to each group"). It requires ModeGroupRotate;
	// group g then owns the consecutive SSD range starting after groups
	// 0..g-1. Empty Sizes means the modular assignment (group of SSD s
	// is s mod m).
	Sizes []int
}

// sized reports whether explicit group sizes are configured.
func (l Layout) sized() bool { return len(l.Sizes) > 0 }

// groupStart returns the first SSD id of group g under explicit sizes.
func (l Layout) groupStart(g int) int {
	start := 0
	for i := 0; i < g; i++ {
		start += l.Sizes[i]
	}
	return start
}

// Validate reports geometry errors, including violations of the
// intra-group reliability guarantee.
func (l Layout) Validate() error {
	switch {
	case l.N <= 0:
		return fmt.Errorf("placement: need at least 1 SSD, got %d", l.N)
	case l.M <= 0 || l.M > l.N:
		return fmt.Errorf("placement: group count %d out of range [1,%d]", l.M, l.N)
	case l.K <= 0 || l.K > l.N:
		return fmt.Errorf("placement: objects per file %d out of range [1,%d]", l.K, l.N)
	case l.K > l.M:
		return fmt.Errorf("placement: k=%d objects per file exceeds m=%d groups; a file's objects could share a group", l.K, l.M)
	case l.Mode == ModeConsecutive && l.N%l.M != 0:
		// Unequal group sizes are the paper's §III.D wear-staggering
		// device; consecutive placement then cannot guarantee distinct
		// groups across the wraparound. Use ModeGroupRotate instead.
		return fmt.Errorf("placement: n=%d not divisible by m=%d; consecutive stripes could collide in a group (use group-rotate placement)", l.N, l.M)
	}
	if l.sized() {
		if l.Mode != ModeGroupRotate {
			return fmt.Errorf("placement: explicit group sizes require group-rotate placement")
		}
		if len(l.Sizes) != l.M {
			return fmt.Errorf("placement: %d group sizes for m=%d groups", len(l.Sizes), l.M)
		}
		sum := 0
		for g, s := range l.Sizes {
			if s < 1 {
				return fmt.Errorf("placement: group %d has size %d", g, s)
			}
			sum += s
		}
		if sum != l.N {
			return fmt.Errorf("placement: group sizes sum to %d, want n=%d", sum, l.N)
		}
	}
	return nil
}

// GroupOf returns the group of an SSD.
func (l Layout) GroupOf(ssd int) int {
	if ssd < 0 || ssd >= l.N {
		panic(fmt.Sprintf("placement: ssd %d out of range [0,%d)", ssd, l.N))
	}
	if l.sized() {
		for g := 0; g < l.M; g++ {
			if ssd < l.groupStart(g)+l.Sizes[g] {
				return g
			}
		}
		panic("placement: group sizes do not cover ssd range")
	}
	return ssd % l.M
}

// GroupSize returns the number of SSDs in group g.
func (l Layout) GroupSize(g int) int {
	if g < 0 || g >= l.M {
		panic(fmt.Sprintf("placement: group %d out of range [0,%d)", g, l.M))
	}
	if l.sized() {
		return l.Sizes[g]
	}
	size := l.N / l.M
	if g < l.N%l.M {
		size++
	}
	return size
}

// GroupMembers returns the SSD ids of group g in ascending order.
func (l Layout) GroupMembers(g int) []int {
	if g < 0 || g >= l.M {
		panic(fmt.Sprintf("placement: group %d out of range [0,%d)", g, l.M))
	}
	if l.sized() {
		start := l.groupStart(g)
		out := make([]int, l.Sizes[g])
		for i := range out {
			out[i] = start + i
		}
		return out
	}
	var out []int
	for s := g; s < l.N; s += l.M {
		out = append(out, s)
	}
	return out
}

// SameGroup reports whether two SSDs share a group (the migration
// admissibility check).
func (l Layout) SameGroup(a, b int) bool { return l.GroupOf(a) == l.GroupOf(b) }

// AppendHomes appends the home SSDs of the file's k objects to dst (used
// when prefilling the cluster's dense home table).
func (l Layout) AppendHomes(dst []int32, inode int64) []int32 {
	for i := 0; i < l.K; i++ {
		dst = append(dst, int32(l.HomeOf(inode, i)))
	}
	return dst
}

// HomeOf returns the home SSD of the file's idx-th object.
func (l Layout) HomeOf(inode int64, idx int) int {
	if idx < 0 || idx >= l.K {
		panic(fmt.Sprintf("placement: object index %d out of range [0,%d)", idx, l.K))
	}
	if inode < 0 {
		panic(fmt.Sprintf("placement: negative inode %d", inode))
	}
	if l.Mode == ModeGroupRotate {
		g := int((inode + int64(idx)) % int64(l.M))
		size := l.GroupSize(g)
		// Member selection hashes the inode so files spread within the
		// group; the group itself rotates with the object index.
		member := int(inode % int64(size))
		if l.sized() {
			return l.groupStart(g) + member
		}
		return g + member*l.M
	}
	start := int(inode % int64(l.N))
	return (start + idx) % l.N
}
