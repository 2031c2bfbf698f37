package exec

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/query"
	"pdcquery/internal/selection"
)

// checkHitOrder sorts a copy of coords with sortHits and compares it
// with slices.SortFunc. With withIdx, every returned index must point
// at the input hit now in its place, and each input hit must be used
// once.
func checkHitOrder(t *testing.T, coords []uint64, withIdx bool) {
	t.Helper()
	want := slices.Clone(coords)
	slices.SortFunc(want, cmp.Compare[uint64])
	got, idx := sortHits(slices.Clone(coords), withIdx)
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d withIdx=%v: order differs from slices.SortFunc\n got %v\nwant %v", len(coords), withIdx, headCoords(got), headCoords(want))
	}
	if !withIdx {
		if idx != nil {
			t.Fatalf("n=%d: index returned without withIdx", len(coords))
		}
		return
	}
	if len(idx) != len(coords) {
		t.Fatalf("n=%d: %d indexes", len(coords), len(idx))
	}
	used := make([]bool, len(coords))
	for i, p := range idx {
		if int(p) >= len(coords) || used[p] {
			t.Fatalf("n=%d: index %d at %d out of range or repeated", len(coords), p, i)
		}
		used[p] = true
		if coords[p] != got[i] {
			t.Fatalf("n=%d: idx[%d]=%d names %d, sorted hit is %d", len(coords), i, p, coords[p], got[i])
		}
	}
}

func headCoords(s []uint64) []uint64 { return s[:min(len(s), 8)] }

// TestHitOrderOracle checks the PDC-SH merge order against a comparison
// sort: empty and single inputs, coordinates inside a small object,
// coordinates wider than 32 bits, coordinates next to 2^64-1, and
// full 64-bit spreads.
func TestHitOrderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	perm := func(n int, base, span uint64) []uint64 {
		seen := make(map[uint64]bool, n)
		out := make([]uint64, 0, n)
		for len(out) < n {
			c := base + rng.Uint64()%span
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
		return out
	}
	cases := []struct {
		name   string
		coords []uint64
	}{
		{"empty", nil},
		{"one", []uint64{42}},
		{"two", []uint64{9, 3}},
		{"object 2^20", perm(5000, 0, 1<<20)},
		{"one digit", perm(300, 1<<20, 1<<10)},
		{"wider than 32 bits", perm(5000, 1<<40, 1<<36)},
		{"beyond 2^32 by one", []uint64{1 << 32, 1<<32 - 1, 1<<32 + 1, 0}},
		{"near 2^64-1", perm(5000, math.MaxUint64-(1<<30), 1<<30)},
		{"max and zero", []uint64{math.MaxUint64, 0, math.MaxUint64 - 1, 1}},
		{"full 64-bit spread", perm(5000, 0, math.MaxUint64)},
		{"60-bit spread, 2^7 hits", perm(128, 0, 1<<60)},
	}
	for _, tc := range cases {
		for _, withIdx := range []bool{false, true} {
			checkHitOrder(t, tc.coords, withIdx)
		}
	}
}

// FuzzHitOrder compares sortHits with slices.SortFunc on arbitrary
// coordinates, read as little-endian uint64s from raw. shift moves them
// up so that the high bits are exercised. Duplicates are allowed: the
// order must still match and the indexes must still be a permutation.
func FuzzHitOrder(f *testing.F) {
	f.Add([]byte{}, uint8(0), true)
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0}, uint8(0), true)
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}, uint8(40), false)
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.MaxUint64), 0), uint8(0), true)
	f.Fuzz(func(t *testing.T, raw []byte, shift uint8, withIdx bool) {
		coords := make([]uint64, len(raw)/8)
		for i := range coords {
			coords[i] = binary.LittleEndian.Uint64(raw[8*i:]) << (shift % 64)
		}
		checkHitOrder(t, coords, withIdx)
	})
}

// TestEvalConjunctSortedAllocs pins the PDC-SH path's allocations to the
// query, not to its hits: a wide window over one cached sorted region
// takes the same number of allocations at about 100 and about 10,000
// hits, and its bytes grow by a bounded amount per hit.
func TestEvalConjunctSortedAllocs(t *testing.T) {
	const n = 1 << 16
	f := thermalFixture(t, n, n)
	e, _ := f.engine(SortedHistogram)
	sortedVals := slices.Clone(f.data[1])
	slices.Sort(sortedVals)
	q := &query.Query{}
	order := []object.ID{1}
	assign := f.fullAssign().Sorted
	var stats Stats
	measure := func(k int) (allocs float64, bytes uint64, hits int) {
		// An open window strictly between two sorted values holds about
		// k elements, placed at random in the object.
		lo := sortedVals[n/2]
		hi := sortedVals[n/2+k+1]
		c := query.Conjunct{1: query.Interval{Lo: float64(lo), Hi: float64(hi)}}
		var sel *selection.Selection
		run := func() {
			var err error
			sel, _, err = e.evalConjunctSorted(nil, q, c, order, f.objs, f.objs[1], f.reps[1], assign, true, &stats, nil)
			if err != nil {
				t.Fatal(err)
			}
		}
		run() // warms the cache
		return testing.AllocsPerRun(20, run), allocBytesPerRun(20, run), int(sel.NHits)
	}
	aSmall, bSmall, kSmall := measure(100)
	aLarge, bLarge, kLarge := measure(10000)
	if kSmall < 50 || kLarge < 5000 {
		t.Fatalf("fixture windows too narrow: %d and %d hits", kSmall, kLarge)
	}
	// Under -race the storage-key Sprintf calls miss fmt's printer pool
	// at random: a few allocations of noise, still none per hit.
	slack := 0.0
	if raceEnabled {
		slack = 3
	}
	if math.Abs(aSmall-aLarge) > slack {
		t.Errorf("allocations depend on hits: %v at %d hits, %v at %d hits", aSmall, kSmall, aLarge, kLarge)
	}
	const perHit, fixed = 64, 16 << 10
	for _, m := range []struct {
		k int
		b uint64
	}{{kSmall, bSmall}, {kLarge, bLarge}} {
		if limit := uint64(perHit*m.k + fixed); m.b > limit {
			t.Errorf("%d hits: %d B/run, want <= %d", m.k, m.b, limit)
		}
	}
}

// TestEvalConjunctSortedRetained checks that a PDC-SH result whose rest
// condition drops most of the key matches keeps no buffer sized by the
// matches: the server stashes the selection and the value columns, so
// each may hold at most twice the bytes of its survivors. The results
// are also compared with a brute-force filter of the data.
func TestEvalConjunctSortedRetained(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(3))
	energy := make([]float32, n)
	x := make([]float32, n)
	for i := range energy {
		energy[i] = float32(rng.ExpFloat64() / 6)
		x[i] = float32(rng.Float64() * 1000)
	}
	f := buildFixture(t, []string{"Energy", "x"}, func(name string, i int) float32 {
		if name == "x" {
			return x[i]
		}
		return energy[i]
	}, n, 1<<13, false, true)
	e, _ := f.engine(SortedHistogram)
	order := []object.ID{1, 2}
	for _, xHi := range []float64{5, 900} {
		c := query.Conjunct{
			1: query.Interval{Lo: 0.05, Hi: 2},
			2: query.Interval{Lo: 0, Hi: xHi, LoIncl: true},
		}
		var stats Stats
		sel, cols, err := e.evalConjunctSorted(nil, &query.Query{}, c, order, f.objs, f.objs[1], f.reps[1], f.fullAssign().Sorted, true, &stats, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for i := range energy {
			if c[1].Contains(float64(energy[i])) && c[2].Contains(float64(x[i])) {
				want = append(want, uint64(i))
			}
		}
		if !slices.Equal(sel.Coords, want) {
			t.Fatalf("x < %v: %d hits, want %d", xHi, len(sel.Coords), len(want))
		}
		if len(want) == 0 {
			t.Fatalf("x < %v: no hits, fixture too narrow", xHi)
		}
		if cap(sel.Coords) > 2*len(sel.Coords) {
			t.Errorf("x < %v: selection keeps capacity %d for %d hits", xHi, cap(sel.Coords), len(sel.Coords))
		}
		for id, data := range map[object.ID][]float32{1: energy, 2: x} {
			col := cols[id]
			if cap(col) > 2*len(col) {
				t.Errorf("x < %v: column %d keeps capacity %d for %d bytes", xHi, id, cap(col), len(col))
			}
			got := dtype.View[float32](col)
			for k, cd := range want {
				if got[k] != data[cd] {
					t.Fatalf("x < %v: column %d value %d is %v, want %v", xHi, id, k, got[k], data[cd])
				}
			}
		}
	}
}
