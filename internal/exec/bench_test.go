package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"pdcquery/internal/dtype"
	"pdcquery/internal/object"
	"pdcquery/internal/query"
	"pdcquery/internal/selection"
)

func BenchmarkScanKernelFloat32(b *testing.B) {
	const n = 1 << 20
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i%1000) / 10
	}
	data := dtype.Bytes(vals)
	runs := []localRun{{Start: 0, Len: n}}
	iv := query.Interval{Lo: 42, Hi: 43, LoIncl: false, HiIncl: false}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	var out []uint64
	for i := 0; i < b.N; i++ {
		out, _ = scanRegion(dtype.Float32, data, runs, iv, out[:0])
	}
	_ = out
}

// BenchmarkScanKernelSelective scans one 64 Ki-element region, the
// benchmark workloads' region size, of a VPIC-like thermal Energy
// spectrum (exponential, rate 6) for Energy > 0.88, which matches about
// 0.5% of elements at unpredictable positions.
func BenchmarkScanKernelSelective(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(rng.ExpFloat64() / 6)
	}
	data := dtype.Bytes(vals)
	runs := []localRun{{Start: 0, Len: n}}
	iv := query.FromLeaf(query.OpGT, 0.88)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	var out []uint64
	for i := 0; i < b.N; i++ {
		out, _ = scanRegion(dtype.Float32, data, runs, iv, out[:0])
	}
	b.ReportMetric(float64(len(out))/n, "hits/elem")
}

func BenchmarkProbeKernel(b *testing.B) {
	const n = 1 << 20
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i % 100)
	}
	data := dtype.Bytes(vals)
	base := make([]uint64, 0, n/100)
	for i := uint64(0); i < n; i += 100 {
		base = append(base, i)
	}
	iv := query.Interval{Lo: -1, Hi: 50, LoIncl: false, HiIncl: false}
	hits := make([]uint64, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(hits, base)
		hits, _ = probeRegion(dtype.Float32, data, hits, iv)
		hits = hits[:cap(hits)]
	}
}

// thermalFixture is one Energy object of n elements drawn from a
// VPIC-like thermal spectrum (exponential, rate 6), in regions of
// regionElems, with a sorted replica of the same region size.
func thermalFixture(tb testing.TB, n int, regionElems uint64) *fixture {
	rng := rand.New(rand.NewSource(1))
	energy := make([]float32, n)
	for i := range energy {
		energy[i] = float32(rng.ExpFloat64() / 6)
	}
	return buildFixture(tb, []string{"Energy"}, func(_ string, i int) float32 { return energy[i] }, n, regionElems, false, true)
}

// BenchmarkSortedConjunct runs the PDC-SH path over a 2^18-element
// object for a wide Energy window (0.3 < Energy < 0.9, about 16% of the
// elements, spread over every original region), with the matching
// values collected and without. The sorted extents are cached, so the
// time is the sorted-region tasks plus the merge into coordinate order.
func BenchmarkSortedConjunct(b *testing.B) {
	const n = 1 << 18
	f := thermalFixture(b, n, 1<<14)
	e, _ := f.engine(SortedHistogram)
	q := &query.Query{}
	c := query.Conjunct{1: query.Interval{Lo: 0.3, Hi: 0.9}}
	order := []object.ID{1}
	sorted := f.fullAssign().Sorted
	for _, collect := range []bool{false, true} {
		b.Run(fmt.Sprintf("collect=%v", collect), func(b *testing.B) {
			var stats Stats
			run := func() *selection.Selection {
				sel, _, err := e.evalConjunctSorted(nil, q, c, order, f.objs, f.objs[1], f.reps[1], sorted, collect, &stats, nil)
				if err != nil {
					b.Fatal(err)
				}
				return sel
			}
			hits := run().NHits // warms the cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(hits), "hits")
		})
	}
}
