package exec

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/query"
)

// Corrupt metadata can carry an element type the kernels do not know;
// the dispatchers must report it as an error rather than panicking in
// the middle of a request.
func TestScanRegionInvalidType(t *testing.T) {
	iv := query.Interval{Lo: 0, Hi: 1}
	if _, err := scanRegion(dtype.Type(200), []byte{1, 2, 3, 4}, []localRun{{Start: 0, Len: 1}}, iv, nil); err == nil {
		t.Error("scanRegion accepted an invalid element type")
	}
}

func TestProbeRegionInvalidType(t *testing.T) {
	iv := query.Interval{Lo: 0, Hi: 1}
	if _, err := probeRegion(dtype.Type(200), []byte{1, 2, 3, 4}, []uint64{0}, iv); err == nil {
		t.Error("probeRegion accepted an invalid element type")
	}
}

// kernelTypes are the ten element types the kernels dispatch on.
var kernelTypes = []dtype.Type{
	dtype.Float32, dtype.Float64, dtype.Int8, dtype.Int16, dtype.Int32,
	dtype.Int64, dtype.Uint8, dtype.Uint16, dtype.Uint32, dtype.Uint64,
}

// checkKernels compares scanRegion and probeRegion with a reference loop
// over query.Interval.Contains. data must be 8-byte aligned and a whole
// number of elements. The probe is fed every index the runs cover, in
// run order.
func checkKernels(t *testing.T, typ dtype.Type, data []byte, runs []localRun, iv query.Interval) {
	t.Helper()
	n := len(data) / typ.Size()
	var covered, want []uint64
	for _, run := range runs {
		for i := run.Start; i < run.Start+run.Len && i < uint64(n); i++ {
			covered = append(covered, i)
			if iv.Contains(dtype.At(typ, data, int(i))) {
				want = append(want, i)
			}
		}
	}
	got, err := scanRegion(typ, data, runs, iv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%v scan %v over %v: got %v, want %v", typ, iv, runs, got, want)
	}
	probed, err := probeRegion(typ, data, covered, iv)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(probed, want) {
		t.Fatalf("%v probe %v: got %v, want %v", typ, iv, probed, want)
	}
}

// alignedCopy copies b into 8-byte-aligned storage, trimmed to whole
// elements of typ, so the kernels' typed views are valid.
func alignedCopy(typ dtype.Type, b []byte) []byte {
	words := make([]uint64, (len(b)+7)/8)
	out := dtype.Bytes(words)[:len(b)]
	copy(out, b)
	return out[:len(b)/typ.Size()*typ.Size()]
}

// kernelEdgeValues are the bound and data values at which a closed-bound
// rewrite can go wrong: infinities, NaN, both zeros, the smallest
// float64 and float32 subnormals, float32 overflow, and integers past
// 2^53 where float64 rounds.
var kernelEdgeValues = []float64{
	math.Inf(-1), math.Inf(1), math.NaN(), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32,
	float64(math.Nextafter32(math.MaxFloat32, 0)), 1 << 53, 1<<53 + 2, -(1<<53 + 2),
	1, -1, 1.5, 100, 127, -128, 255, 65535, math.MaxInt64, math.MaxUint64,
}

// edgeData encodes kernelEdgeValues (and neighbours of the integer
// ones) as elements of typ.
func edgeData(typ dtype.Type) []byte {
	var vals []float64
	for _, v := range kernelEdgeValues {
		vals = append(vals, v)
		if !typ.IsFloat() && !math.IsInf(v, 0) && !math.IsNaN(v) {
			vals = append(vals, v-1, v+1)
		}
	}
	data := alignedCopy(typ, make([]byte, len(vals)*typ.Size()))
	for i, v := range vals {
		dtype.Put(typ, data, i, v)
	}
	if typ == dtype.Int64 || typ == dtype.Uint64 {
		// Integers around 2^53 that float64 cannot hold exactly.
		for i, v := range []uint64{1<<53 + 1, 1<<53 + 3, 1<<63 - 1, 1<<63 + 1} {
			binary.LittleEndian.PutUint64(data[i*8:], v)
		}
	}
	return data
}

// TestScanKernelEdgeBounds is the oracle check at every pairing of edge
// bounds, open and closed, over data holding the same edge values, for
// all ten element types.
func TestScanKernelEdgeBounds(t *testing.T) {
	for _, typ := range kernelTypes {
		data := edgeData(typ)
		runs := []localRun{{Start: 0, Len: uint64(len(data) / typ.Size())}}
		for _, lo := range kernelEdgeValues {
			for _, hi := range kernelEdgeValues {
				for incl := 0; incl < 4; incl++ {
					iv := query.Interval{Lo: lo, Hi: hi, LoIncl: incl&1 != 0, HiIncl: incl&2 != 0}
					checkKernels(t, typ, data, runs, iv)
				}
			}
		}
	}
}

// TestScanKernelOracle checks random data, bounds and runs — empty runs,
// runs clipped at the data's end, runs past it — against the oracle for
// all ten element types, across the 64-element batch and 64 Ki-element
// chunk boundaries.
func TestScanKernelOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		typ := kernelTypes[trial%len(kernelTypes)]
		n := rng.Intn(300)
		if trial%25 == 0 {
			n = maskElems + 64 + rng.Intn(300)
		}
		raw := make([]byte, n*typ.Size())
		for i := 0; i < n; i++ {
			// Few distinct values, so bounds hit data exactly.
			dtype.Put(typ, raw, i, float64(rng.Intn(41)-20)/4)
		}
		data := alignedCopy(typ, raw)
		var runs []localRun
		if trial%25 == 0 {
			// One run longer than a chunk, from an unaligned start, so the
			// second chunk's base offset is checked too.
			runs = append(runs, localRun{Start: uint64(rng.Intn(64)), Len: uint64(n)})
		}
		for start := uint64(0); start <= uint64(n)+8; {
			l := uint64(rng.Intn(n/4 + 70))
			runs = append(runs, localRun{Start: start, Len: l})
			start += l + uint64(rng.Intn(20))
		}
		lo, hi := float64(rng.Intn(41)-20)/4, float64(rng.Intn(41)-20)/4
		iv := query.Interval{Lo: min(lo, hi), Hi: max(lo, hi), LoIncl: rng.Intn(2) == 0, HiIncl: rng.Intn(2) == 0}
		checkKernels(t, typ, data, runs, iv)
	}
}

// FuzzScanKernel compares scanRegion and probeRegion with the
// Interval.Contains oracle on arbitrary element bytes, bounds and runs.
// runSpec is read as (start, len) byte pairs.
func FuzzScanKernel(f *testing.F) {
	for ti, typ := range kernelTypes {
		data := edgeData(typ)
		for _, v := range kernelEdgeValues {
			for incl := 0; incl < 4; incl++ {
				lo, hi := v, math.Inf(1)
				if incl >= 2 {
					lo, hi = math.Inf(-1), v
				}
				f.Add(uint8(ti), data, lo, hi, incl%2 == 0, incl%2 == 1, []byte{0, 255})
			}
		}
		f.Add(uint8(ti), data, -1.0, 1.0, true, false, []byte{3, 0, 2, 5, 9, 200})
	}
	f.Fuzz(func(t *testing.T, ti uint8, raw []byte, lo, hi float64, loIncl, hiIncl bool, runSpec []byte) {
		typ := kernelTypes[int(ti)%len(kernelTypes)]
		data := alignedCopy(typ, raw)
		var runs []localRun
		for i := 0; i+1 < len(runSpec); i += 2 {
			runs = append(runs, localRun{Start: uint64(runSpec[i]), Len: uint64(runSpec[i+1])})
		}
		checkKernels(t, typ, data, runs, query.Interval{Lo: lo, Hi: hi, LoIncl: loIncl, HiIncl: hiIncl})
	})
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the average heap
// bytes one call of fn allocates, after one warm-up call.
func allocBytesPerRun(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestEvalRegionScanAllocs pins the hit buffer to the hits: a scan of a
// cached 64 Ki-element region allocates nothing when nothing matches,
// one slice of about 8 bytes per hit when k elements match, and a
// logarithmic number of slices when the hits are spread over many runs.
func TestEvalRegionScanAllocs(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(3))
	energy := make([]float32, n)
	for i := range energy {
		energy[i] = float32(rng.ExpFloat64() / 6)
	}
	f := buildFixture(t, []string{"Energy"}, func(_ string, i int) float32 { return energy[i] }, n, n, false, false)
	e, _ := f.engine(FullScan)
	o := f.objs[1]
	if _, err := e.readRegion(o, 0); err != nil { // warm the cache
		t.Fatal(err)
	}
	order := []object.ID{1}
	runs := []localRun{{Start: 0, Len: n}}
	var stats Stats
	scan := func(iv query.Interval) func() {
		c := query.Conjunct{1: iv}
		return func() {
			if _, err := e.evalRegionScan(nil, c, order, f.objs, 0, runs, &stats, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	none := scan(query.FromLeaf(query.OpGT, 1e9))
	if a := testing.AllocsPerRun(50, none); a != 0 {
		t.Errorf("zero-hit scan: %v allocs/run, want 0", a)
	}
	if b := allocBytesPerRun(50, none); b != 0 {
		t.Errorf("zero-hit scan: %d B/run, want 0", b)
	}

	iv := query.FromLeaf(query.OpGT, 0.88) // about 0.5% of a rate-6 exponential
	k := 0
	for _, v := range energy {
		if iv.Contains(float64(v)) {
			k++
		}
	}
	if k < 100 {
		t.Fatalf("fixture too sparse: %d hits", k)
	}
	some := scan(iv)
	if a := testing.AllocsPerRun(50, some); a != 1 {
		t.Errorf("%d-hit scan: %v allocs/run, want 1", k, a)
	}
	if b, limit := allocBytesPerRun(50, some), uint64(2*8*k+64); b > limit {
		t.Errorf("%d-hit scan: %d B/run, want <= %d", k, b, limit)
	}

	// A 2-D constraint scans one short run per row. The hit slice must
	// grow geometrically across runs, not once per run with hits.
	const rows, cols = 256, 128
	rowRuns := make([]localRun, rows)
	for r := range rowRuns {
		rowRuns[r] = localRun{Start: uint64(r) * n / rows, Len: cols}
	}
	dense := query.FromLeaf(query.OpGT, 0.3) // about 16% of elements
	k = 0
	for _, run := range rowRuns {
		for _, v := range energy[run.Start : run.Start+run.Len] {
			if dense.Contains(float64(v)) {
				k++
			}
		}
	}
	c := query.Conjunct{1: dense}
	multi := func() {
		if _, err := e.evalRegionScan(nil, c, order, f.objs, 0, rowRuns, &stats, nil); err != nil {
			t.Fatal(err)
		}
	}
	if a, limit := testing.AllocsPerRun(20, multi), float64(bits.Len(uint(k))+1); a > limit {
		t.Errorf("%d-hit scan over %d runs: %v allocs/run, want <= %v", k, rows, a, limit)
	}
	if b, limit := allocBytesPerRun(20, multi), uint64(4*8*k+64); b > limit {
		t.Errorf("%d-hit scan over %d runs: %d B/run, want <= %d", k, rows, b, limit)
	}
}
