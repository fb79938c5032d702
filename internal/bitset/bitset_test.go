package bitset

import (
	"math/bits"
	"sort"
	"testing"
	"testing/quick"
)

func TestSingle(t *testing.T) {
	for i := 0; i < MaxRelations; i++ {
		s := Single(i)
		if !s.Has(i) {
			t.Errorf("Single(%d) does not contain %d", i, i)
		}
		if s.Count() != 1 {
			t.Errorf("Single(%d).Count() = %d, want 1", i, s.Count())
		}
		if !s.IsSingleton() {
			t.Errorf("Single(%d).IsSingleton() = false", i)
		}
	}
}

func TestSingleOutOfRangePanics(t *testing.T) {
	for _, i := range []int{-1, MaxRelations, MaxRelations + 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Single(%d) did not panic", i)
				}
			}()
			Single(i)
		}()
	}
}

func TestFull(t *testing.T) {
	if Full(0) != Empty {
		t.Errorf("Full(0) = %v, want empty", Full(0))
	}
	for n := 1; n <= MaxRelations; n++ {
		s := Full(n)
		if s.Count() != n {
			t.Errorf("Full(%d).Count() = %d", n, s.Count())
		}
		if s.Min() != 0 || s.Max() != n-1 {
			t.Errorf("Full(%d) min/max = %d/%d", n, s.Min(), s.Max())
		}
	}
}

func TestOf(t *testing.T) {
	s := Of(0, 2, 5)
	want := []int{0, 2, 5}
	got := s.Members()
	if len(got) != len(want) {
		t.Fatalf("Members() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members() = %v, want %v", got, want)
		}
	}
	if Of() != Empty {
		t.Errorf("Of() = %v, want empty", Of())
	}
}

func TestSetAlgebra(t *testing.T) {
	a := Of(0, 1, 2)
	b := Of(2, 3)
	if got := a.Union(b); got != Of(0, 1, 2, 3) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); got != Of(2) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Diff(b); got != Of(0, 1) {
		t.Errorf("Diff = %v", got)
	}
	if !a.Overlaps(b) {
		t.Error("Overlaps = false")
	}
	if a.Overlaps(Of(4, 5)) {
		t.Error("Overlaps disjoint = true")
	}
	if !Of(1).SubsetOf(a) || b.SubsetOf(a) {
		t.Error("SubsetOf wrong")
	}
	if !Empty.SubsetOf(a) || !Empty.SubsetOf(Empty) {
		t.Error("empty set must be subset of everything")
	}
}

func TestAddRemove(t *testing.T) {
	s := Empty.Add(3).Add(7).Add(3)
	if s != Of(3, 7) {
		t.Fatalf("Add = %v", s)
	}
	s = s.Remove(3).Remove(0)
	if s != Of(7) {
		t.Fatalf("Remove = %v", s)
	}
}

func TestMinMax(t *testing.T) {
	s := Of(4, 9, 17)
	if s.Min() != 4 {
		t.Errorf("Min = %d", s.Min())
	}
	if s.Max() != 17 {
		t.Errorf("Max = %d", s.Max())
	}
	if s.MinSet() != Of(4) {
		t.Errorf("MinSet = %v", s.MinSet())
	}
}

func TestMinEmptyPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Min":    func() { Empty.Min() },
		"Max":    func() { Empty.Max() },
		"MinSet": func() { Empty.MinSet() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty set did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestIsSingleton(t *testing.T) {
	if Empty.IsSingleton() {
		t.Error("empty is not a singleton")
	}
	if Of(1, 2).IsSingleton() {
		t.Error("{1,2} is not a singleton")
	}
	if !Of(29).IsSingleton() {
		t.Error("{29} is a singleton")
	}
}

func TestForEachOrder(t *testing.T) {
	s := Of(9, 1, 23, 4)
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if !sort.IntsAreSorted(got) {
		t.Errorf("ForEach order = %v, want ascending", got)
	}
	if len(got) != 4 {
		t.Errorf("ForEach visited %d members, want 4", len(got))
	}
}

// TestNextSubsetEnumeratesAll checks the §4.2 successor against a reference:
// every nonempty proper subset appears exactly once.
func TestNextSubsetEnumeratesAll(t *testing.T) {
	cases := []Set{
		Of(0, 1),
		Of(0, 1, 2),
		Of(1, 3, 4, 7),
		Of(0, 2, 4, 6, 8, 10),
		Full(10),
		Of(5, 29),
	}
	for _, s := range cases {
		seen := map[Set]int{}
		n := 0
		for l := s.MinSet(); l != s; l = s.NextSubset(l) {
			if l == 0 {
				t.Fatalf("%v: enumerated empty set", s)
			}
			if !l.SubsetOf(s) {
				t.Fatalf("%v: %v is not a subset", s, l)
			}
			seen[l]++
			n++
			if n > 1<<uint(s.Count()) {
				t.Fatalf("%v: enumeration did not terminate", s)
			}
		}
		want := 1<<uint(s.Count()) - 2
		if n != want {
			t.Errorf("%v: enumerated %d subsets, want %d", s, n, want)
		}
		for sub, c := range seen {
			if c != 1 {
				t.Errorf("%v: subset %v seen %d times", s, sub, c)
			}
		}
	}
}

// TestNextSubsetMatchesDescend verifies the two enumerators yield the same
// set of subsets (property test over random masks).
func TestNextSubsetMatchesDescend(t *testing.T) {
	f := func(raw uint32) bool {
		s := Set(raw) & Full(16)
		if s.Count() < 2 {
			return true
		}
		up := map[Set]bool{}
		for l := s.MinSet(); l != s; l = s.NextSubset(l) {
			up[l] = true
		}
		down := map[Set]bool{}
		for l := s.DescendSubset(s); l != 0; l = s.DescendSubset(l) {
			down[l] = true
		}
		if len(up) != len(down) {
			return false
		}
		for k := range up {
			if !down[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNextSubsetSplitsPartition: for each enumerated lhs, lhs and s^lhs
// partition s into two nonempty halves.
func TestNextSubsetSplitsPartition(t *testing.T) {
	f := func(raw uint32) bool {
		s := Set(raw) & Full(18)
		if s.Count() < 2 {
			return true
		}
		for l := s.MinSet(); l != s; l = s.NextSubset(l) {
			r := s ^ l
			if l == 0 || r == 0 || l&r != 0 || l|r != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNextSubsetOrderIsContractedAscending: the paper says δ(1), δ(2), …,
// i.e. the contracted values ascend by 1 each step.
func TestNextSubsetOrderIsContractedAscending(t *testing.T) {
	s := Of(1, 4, 5, 9, 12)
	want := uint64(1)
	for l := s.MinSet(); l != s; l = s.NextSubset(l) {
		if got := s.Contract(l); got != want {
			t.Fatalf("contracted value = %d, want %d", got, want)
		}
		want++
	}
	if want != 1<<uint(s.Count())-1 {
		t.Fatalf("stopped at contracted value %d", want)
	}
}

func TestNextSubsetStride(t *testing.T) {
	s := Of(0, 2, 3, 6)
	for _, stride := range []int{1, 3, 5, 7, 9} {
		seen := map[Set]bool{}
		start := s.MinSet()
		l := start
		for {
			seen[l] = true
			l = s.NextSubsetStride(l, stride)
			for l == 0 || l == s {
				l = s.NextSubsetStride(l, stride)
			}
			if l == start {
				break
			}
			if len(seen) > 1<<uint(s.Count()) {
				t.Fatalf("stride %d: walk did not cycle", stride)
			}
		}
		if want := 1<<uint(s.Count()) - 2; len(seen) != want {
			t.Errorf("stride %d: visited %d subsets, want %d", stride, len(seen), want)
		}
	}
}

func TestNextSubsetStrideEvenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("even stride did not panic")
		}
	}()
	Of(0, 1, 2).NextSubsetStride(Of(0), 2)
}

func TestDilateContract(t *testing.T) {
	// Worked example from the paper: δ_11001(abc) = ab00c.
	s := Set(0b11001)
	if got := s.Dilate(0b101); got != Set(0b10001) {
		t.Errorf("Dilate(0b101) = %b, want 10001", got)
	}
	if got := s.Contract(Set(0b10001)); got != 0b101 {
		t.Errorf("Contract(0b10001) = %b, want 101", got)
	}
	// γ_11001(abcde) = abe: contract a full-width word.
	if got := s.Contract(Set(0b11001)); got != 0b111 {
		t.Errorf("Contract(S) = %b, want 111", got)
	}
}

func TestDilateContractRoundTrip(t *testing.T) {
	f := func(rawMask uint32, rawI uint16) bool {
		s := Set(rawMask) & Full(20)
		m := s.Count()
		i := uint64(rawI) & (1<<uint(m) - 1)
		d := s.Dilate(i)
		return d.SubsetOf(s) && s.Contract(d) == i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPaperIdentity4 checks equation (4): γ(δ(i) − δ(j)) = i − j, for i ≥ j,
// interpreting subtraction in two's complement on the dilated domain.
func TestPaperIdentity4(t *testing.T) {
	s := Set(0b11001)
	m := s.Count()
	for i := uint64(0); i < 1<<uint(m); i++ {
		for j := uint64(0); j <= i; j++ {
			di, dj := uint64(s.Dilate(i)), uint64(s.Dilate(j))
			got := s.Contract(Set(di-dj) & s)
			if got != i-j {
				t.Fatalf("γ(δ(%d)−δ(%d)) = %d, want %d", i, j, got, i-j)
			}
		}
	}
}

// TestPaperIdentity5and6 checks δ(γ(w)) = S & w and δ(−1) = S.
func TestPaperIdentity5and6(t *testing.T) {
	s := Set(0b1011010)
	m := s.Count()
	for w := Set(0); w < 1<<7; w++ {
		if got := s.Dilate(s.Contract(w)); got != s&w {
			t.Fatalf("δ(γ(%b)) = %b, want %b", w, got, s&w)
		}
	}
	allOnes := uint64(1)<<uint(m) - 1 // −1 in m-bit two's complement
	if got := s.Dilate(allOnes); got != s {
		t.Fatalf("δ(−1) = %b, want %b", got, s)
	}
}

func TestString(t *testing.T) {
	if got := Empty.String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
	if got := Of(0, 2, 5).String(); got != "{R0, R2, R5}" {
		t.Errorf("String = %q", got)
	}
}

func TestMembersMatchesCount(t *testing.T) {
	f := func(raw uint32) bool {
		s := Set(raw) & Full(MaxRelations)
		ms := s.Members()
		if len(ms) != s.Count() {
			return false
		}
		rebuilt := Empty
		for _, i := range ms {
			rebuilt = rebuilt.Add(i)
		}
		return rebuilt == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMinSetIsLowestBit(t *testing.T) {
	f := func(raw uint32) bool {
		s := Set(raw) & Full(MaxRelations)
		if s == 0 {
			return true
		}
		return s.MinSet() == Set(1)<<uint(bits.TrailingZeros64(uint64(s)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkNextSubsetEnumeration(b *testing.B) {
	s := Full(15)
	b.ReportAllocs()
	var sink Set
	for i := 0; i < b.N; i++ {
		for l := s.MinSet(); l != s; l = s.NextSubset(l) {
			sink ^= l
		}
	}
	_ = sink
}

func BenchmarkDescendSubsetEnumeration(b *testing.B) {
	s := Full(15)
	b.ReportAllocs()
	var sink Set
	for i := 0; i < b.N; i++ {
		for l := s.DescendSubset(s); l != 0; l = s.DescendSubset(l) {
			sink ^= l
		}
	}
	_ = sink
}
