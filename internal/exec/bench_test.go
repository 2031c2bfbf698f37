package exec

import (
	"math/rand"
	"testing"

	"pdcquery/internal/dtype"
	"pdcquery/internal/query"
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
