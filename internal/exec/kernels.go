package exec

import (
	"fmt"
	"math"
	"math/bits"

	"pdcquery/internal/dtype"
	"pdcquery/internal/query"
)

// localRun is a contiguous run of local element indices [Start, Start+Len)
// within one region buffer.
type localRun struct {
	Start uint64
	Len   uint64
}

// closedBounds rewrites iv as closed bounds: for every float64 x,
// lo <= x && x <= hi holds exactly when iv.Contains(x) does. An open end
// moves one float64 step inward (math.Nextafter), which is exact because
// float64 is discrete; an open lower bound at 0 or -0 becomes the
// smallest positive subnormal, so -0 stays excluded as Contains has it.
// ok is false when nothing can match: a NaN bound (every comparison with
// it is false), an open lower bound at +Inf or an open upper bound at
// -Inf, or bounds that cross. NaN data never matches since NaN compares
// false with lo.
func closedBounds(iv query.Interval) (lo, hi float64, ok bool) {
	lo, hi = iv.Lo, iv.Hi
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return 0, 0, false
	}
	if !iv.LoIncl {
		if math.IsInf(lo, 1) {
			return 0, 0, false
		}
		lo = math.Nextafter(lo, math.Inf(1))
	}
	if !iv.HiIncl {
		if math.IsInf(hi, -1) {
			return 0, 0, false
		}
		hi = math.Nextafter(hi, math.Inf(-1))
	}
	return lo, hi, lo <= hi
}

// in is 1 when lo <= float64(v) <= hi and 0 otherwise, computed from
// two flag sets rather than branches.
func in[E dtype.Native](v E, lo, hi float64) uint64 {
	x := float64(v)
	return b2u(lo <= x) & b2u(x <= hi)
}

// b2u is 1 for true and 0 for false; the compiler lowers it to a flag
// set.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// maskWords bounds the match mask of one scan chunk: 1024 words cover
// maskElems = 64 Ki elements, a whole region of the default layout, in
// 8 KiB of stack.
const (
	maskWords = 1024
	maskElems = 64 * maskWords
)

// matchMask sets bit j%64 of mask[j/64] exactly when lo <= vals[j] <= hi
// (len(vals) <= maskElems) and returns the number of bits set. Each
// batch of 64 elements folds into one mask word without a branch, eight
// elements per step so that every shift is a constant.
func matchMask[E dtype.Native](vals []E, lo, hi float64, mask *[maskWords]uint64) int {
	k := 0
	for w := 0; len(vals) > 0; w++ {
		batch := vals[:min(64, len(vals))]
		var m uint64
		j := 0
		for ; j+8 <= len(batch); j += 8 {
			g := batch[j : j+8 : j+8]
			m |= (in(g[0], lo, hi) | in(g[1], lo, hi)<<1 | in(g[2], lo, hi)<<2 | in(g[3], lo, hi)<<3 |
				in(g[4], lo, hi)<<4 | in(g[5], lo, hi)<<5 | in(g[6], lo, hi)<<6 | in(g[7], lo, hi)<<7) << j
		}
		for ; j < len(batch); j++ {
			m |= in(batch[j], lo, hi) << j
		}
		mask[w] = m
		k += bits.OnesCount64(m)
		vals = vals[len(batch):]
	}
	return k
}

// clipRun returns run's bounds clipped to n elements (start >= end when
// nothing is left).
func clipRun(run localRun, n int) (start, end uint64) {
	if run.Start >= uint64(n) {
		return 0, 0
	}
	return run.Start, run.Start + min(run.Len, uint64(n)-run.Start)
}

// appendMatches appends base+i for every bit i set in the first
// ceil(n/64) words of mask, k of them. out grows at most once: an empty
// out to exactly k, a non-empty one at least doubling, so the many short
// runs of a multi-dimensional constraint cost a logarithmic number of
// allocations, not one copy of the hits so far per run.
func appendMatches(out []uint64, mask *[maskWords]uint64, k, n int, base uint64) []uint64 {
	if k == 0 {
		return out
	}
	if cap(out)-len(out) < k {
		grown := make([]uint64, len(out), max(len(out)+k, 2*cap(out)))
		copy(grown, out)
		out = grown
	}
	for w, m := range mask[:(n+63)/64] {
		for ; m != 0; m &= m - 1 {
			out = append(out, base+uint64(w*64+bits.TrailingZeros64(m)))
		}
	}
	return out
}

// scanTyped appends the local indices within the given runs whose value
// satisfies the interval. Runs are clipped at len(vals). Each chunk of
// up to maskElems elements is tested into a match mask first and out
// grows at most once per chunk (see appendMatches): a region's hit slice
// is sized by its hits, and a region without hits allocates nothing.
func scanTyped[E dtype.Native](vals []E, runs []localRun, iv query.Interval, out []uint64) []uint64 {
	lo, hi, ok := closedBounds(iv)
	if !ok {
		return out
	}
	var mask [maskWords]uint64
	for _, run := range runs {
		start, end := clipRun(run, len(vals))
		for ; start < end; start += maskElems {
			chunk := vals[start:min(end, start+maskElems)]
			out = appendMatches(out, &mask, matchMask(chunk, lo, hi, &mask), len(chunk), start)
		}
	}
	return out
}

// scanRegion dispatches scanTyped on the region's element type. An
// unknown type means corrupt metadata reached the evaluation engine; it
// is reported as an error, not a panic, so one bad request cannot take
// the server down.
func scanRegion(t dtype.Type, data []byte, runs []localRun, iv query.Interval, out []uint64) ([]uint64, error) {
	switch t {
	case dtype.Float32:
		return scanTyped(dtype.View[float32](data), runs, iv, out), nil
	case dtype.Float64:
		return scanTyped(dtype.View[float64](data), runs, iv, out), nil
	case dtype.Int8:
		return scanTyped(dtype.View[int8](data), runs, iv, out), nil
	case dtype.Int16:
		return scanTyped(dtype.View[int16](data), runs, iv, out), nil
	case dtype.Int32:
		return scanTyped(dtype.View[int32](data), runs, iv, out), nil
	case dtype.Int64:
		return scanTyped(dtype.View[int64](data), runs, iv, out), nil
	case dtype.Uint8:
		return scanTyped(dtype.View[uint8](data), runs, iv, out), nil
	case dtype.Uint16:
		return scanTyped(dtype.View[uint16](data), runs, iv, out), nil
	case dtype.Uint32:
		return scanTyped(dtype.View[uint32](data), runs, iv, out), nil
	case dtype.Uint64:
		return scanTyped(dtype.View[uint64](data), runs, iv, out), nil
	}
	return nil, fmt.Errorf("exec: scan on invalid element type %v", t)
}

// probeTyped filters local hit indices in place, keeping those whose value
// in vals satisfies the interval (the paper's AND refinement: only already
// selected locations are evaluated for subsequent conditions). Every
// index is written to the next output slot and the slot advances only on
// a match, so the loop has no data-dependent branch; the write never
// overtakes the read because the output never runs ahead of the input.
func probeTyped[E dtype.Native](vals []E, hits []uint64, iv query.Interval) []uint64 {
	lo, hi, ok := closedBounds(iv)
	if !ok {
		return hits[:0]
	}
	k := 0
	for _, i := range hits {
		hits[k] = i
		k += int(in(vals[i], lo, hi))
	}
	return hits[:k]
}

// probeRegion dispatches probeTyped on the region's element type; like
// scanRegion it reports unknown types as errors.
func probeRegion(t dtype.Type, data []byte, hits []uint64, iv query.Interval) ([]uint64, error) {
	switch t {
	case dtype.Float32:
		return probeTyped(dtype.View[float32](data), hits, iv), nil
	case dtype.Float64:
		return probeTyped(dtype.View[float64](data), hits, iv), nil
	case dtype.Int8:
		return probeTyped(dtype.View[int8](data), hits, iv), nil
	case dtype.Int16:
		return probeTyped(dtype.View[int16](data), hits, iv), nil
	case dtype.Int32:
		return probeTyped(dtype.View[int32](data), hits, iv), nil
	case dtype.Int64:
		return probeTyped(dtype.View[int64](data), hits, iv), nil
	case dtype.Uint8:
		return probeTyped(dtype.View[uint8](data), hits, iv), nil
	case dtype.Uint16:
		return probeTyped(dtype.View[uint16](data), hits, iv), nil
	case dtype.Uint32:
		return probeTyped(dtype.View[uint32](data), hits, iv), nil
	case dtype.Uint64:
		return probeTyped(dtype.View[uint64](data), hits, iv), nil
	}
	return nil, fmt.Errorf("exec: probe on invalid element type %v", t)
}

// filterRuns keeps the sorted local indices that fall inside the sorted,
// disjoint runs (used to apply a spatial constraint to index results).
func filterRuns(hits []uint64, runs []localRun) []uint64 {
	out := hits[:0]
	r := 0
	for _, h := range hits {
		for r < len(runs) && runs[r].Start+runs[r].Len <= h {
			r++
		}
		if r == len(runs) {
			break
		}
		if h >= runs[r].Start {
			out = append(out, h)
		}
	}
	return out
}
