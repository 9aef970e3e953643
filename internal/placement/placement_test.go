package placement

import (
	"fmt"
	"testing"
	"testing/quick"
)

// Place returns the home SSDs of a file's k objects: a reference for
// HomeOf written out from the paper's §III.A rule, sharing none of its
// code. Object idx of a file goes on SSD (inode mod n + idx) mod n in
// consecutive mode; in group-rotate mode it goes into group
// (inode + idx) mod m, on member inode mod |group| of the group's
// ascending member list.
func (l Layout) Place(inode int64) []int {
	if inode < 0 {
		panic(fmt.Sprintf("placement: negative inode %d", inode))
	}
	groups := l.refGroups()
	out := make([]int, l.K)
	for idx := range out {
		if l.Mode == ModeGroupRotate {
			g := groups[(inode+int64(idx))%int64(l.M)]
			out[idx] = g[inode%int64(len(g))]
		} else {
			out[idx] = int((inode%int64(l.N) + int64(idx)) % int64(l.N))
		}
	}
	return out
}

// refGroups lists each group's SSDs in ascending order, built
// explicitly: with Sizes, group g holds the next Sizes[g] consecutive
// SSDs; without, SSD s is in group s mod m.
func (l Layout) refGroups() [][]int {
	groups := make([][]int, l.M)
	if len(l.Sizes) > 0 {
		s := 0
		for g, size := range l.Sizes {
			for ; size > 0; size-- {
				groups[g] = append(groups[g], s)
				s++
			}
		}
		return groups
	}
	for s := 0; s < l.N; s++ {
		groups[s%l.M] = append(groups[s%l.M], s)
	}
	return groups
}

func TestValidate(t *testing.T) {
	good := []Layout{
		{N: 16, M: 4, K: 4},
		{N: 20, M: 4, K: 4},
		{N: 8, M: 4, K: 3},
		{N: 4, M: 4, K: 4},
	}
	for _, l := range good {
		if err := l.Validate(); err != nil {
			t.Fatalf("%+v should validate: %v", l, err)
		}
	}
	bad := []Layout{
		{N: 0, M: 1, K: 1},
		{N: 16, M: 0, K: 4},
		{N: 16, M: 17, K: 4},
		{N: 16, M: 4, K: 0},
		{N: 16, M: 4, K: 5},  // k > m: a file's objects could share a group
		{N: 18, M: 4, K: 4},  // n not divisible by m
		{N: 16, M: 4, K: 17}, // k > n
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Fatalf("%+v should be rejected", l)
		}
	}
}

func TestGroupStructure(t *testing.T) {
	l := Layout{N: 16, M: 4, K: 4}
	// Group g holds g, g+4, g+8, g+12 — the paper's Figure 2 layout.
	want := map[int][]int{
		0: {0, 4, 8, 12},
		1: {1, 5, 9, 13},
		2: {2, 6, 10, 14},
		3: {3, 7, 11, 15},
	}
	for g, members := range want {
		got := l.GroupMembers(g)
		if len(got) != len(members) {
			t.Fatalf("group %d: %v", g, got)
		}
		for i := range members {
			if got[i] != members[i] {
				t.Fatalf("group %d: got %v want %v", g, got, members)
			}
		}
		if l.GroupSize(g) != 4 {
			t.Fatalf("group %d size %d", g, l.GroupSize(g))
		}
	}
}

func TestGroupsPartitionSSDs(t *testing.T) {
	l := Layout{N: 20, M: 4, K: 4}
	seen := make([]bool, l.N)
	for g := 0; g < l.M; g++ {
		for _, s := range l.GroupMembers(g) {
			if seen[s] {
				t.Fatalf("ssd %d in two groups", s)
			}
			seen[s] = true
			if l.GroupOf(s) != g {
				t.Fatalf("GroupOf(%d) = %d, want %d", s, l.GroupOf(s), g)
			}
		}
	}
	for s, ok := range seen {
		if !ok {
			t.Fatalf("ssd %d in no group", s)
		}
	}
}

func TestPlaceConsecutive(t *testing.T) {
	l := Layout{N: 16, M: 4, K: 4}
	// inode mod n selects the first SSD; objects go on consecutive SSDs.
	got := l.Place(5)
	want := []int{5, 6, 7, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Place(5) = %v", got)
		}
	}
	// Wraparound.
	got = l.Place(14)
	want = []int{14, 15, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Place(14) = %v", got)
		}
	}
}

// TestHomeOfAgreesWithPlace checks HomeOf against the §III.A reference
// (Place) for modular layouts in both modes, one whose n is no multiple
// of m, and a sized layout, and requires each file's k objects to land
// in k distinct groups of the reference's member lists.
func TestHomeOfAgreesWithPlace(t *testing.T) {
	for _, l := range []Layout{
		{N: 16, M: 4, K: 4},
		{N: 20, M: 4, K: 4},
		{N: 16, M: 4, K: 4, Mode: ModeGroupRotate},
		{N: 20, M: 4, K: 3, Mode: ModeGroupRotate},
		{N: 18, M: 4, K: 4, Mode: ModeGroupRotate},
		{N: 20, M: 4, K: 4, Mode: ModeGroupRotate, Sizes: []int{3, 5, 6, 6}},
	} {
		if err := l.Validate(); err != nil {
			t.Fatal(err)
		}
		groupOf := map[int]int{}
		for g, members := range l.refGroups() {
			for _, s := range members {
				groupOf[s] = g
			}
		}
		for _, inode := range append(seq(500), 1<<40+7, 1<<62-1) {
			p := l.Place(inode)
			seen := map[int]bool{}
			for idx, s := range p {
				if got := l.HomeOf(inode, idx); got != s {
					t.Fatalf("%+v: HomeOf(%d, %d) = %d, the §III.A rule gives %d", l, inode, idx, got, s)
				}
				if seen[groupOf[s]] {
					t.Fatalf("%+v: file %d has two objects in group %d: %v", l, inode, groupOf[s], p)
				}
				seen[groupOf[s]] = true
			}
		}
	}
}

// seq returns 0..n-1 as inodes.
func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func TestSameGroup(t *testing.T) {
	l := Layout{N: 16, M: 4, K: 4}
	if !l.SameGroup(0, 8) {
		t.Fatal("0 and 8 share group 0")
	}
	if l.SameGroup(0, 1) {
		t.Fatal("0 and 1 are in different groups")
	}
}

func TestPanics(t *testing.T) {
	l := Layout{N: 16, M: 4, K: 4}
	for _, fn := range []func(){
		func() { l.GroupOf(-1) },
		func() { l.GroupOf(16) },
		func() { l.GroupMembers(4) },
		func() { l.GroupSize(-1) },
		func() { l.Place(-1) },
		func() { l.HomeOf(0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// The §III.D reliability property: for every valid layout and every
// inode, a file's k objects land in k distinct groups — so wear-out
// within one group can never take out two objects of the same stripe.
func TestPropertyFileObjectsInDistinctGroups(t *testing.T) {
	f := func(nRaw, mRaw, kRaw uint8, inodeRaw uint32) bool {
		m := int(mRaw)%8 + 1
		n := m * (int(nRaw)%5 + 1)
		k := int(kRaw)%m + 1
		l := Layout{N: n, M: m, K: k}
		if err := l.Validate(); err != nil {
			return true // skip invalid combinations
		}
		groups := map[int]bool{}
		for _, s := range l.Place(int64(inodeRaw)) {
			g := l.GroupOf(s)
			if groups[g] {
				return false
			}
			groups[g] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Placement is uniform: over consecutive inodes every SSD receives the
// same number of first objects.
func TestPlacementUniformity(t *testing.T) {
	l := Layout{N: 16, M: 4, K: 4}
	counts := make([]int, l.N)
	for inode := int64(0); inode < 16*100; inode++ {
		counts[l.Place(inode)[0]]++
	}
	for s, c := range counts {
		if c != 100 {
			t.Fatalf("ssd %d got %d first objects, want 100", s, c)
		}
	}
}
