package exec

import "math/bits"

// radixBits is the digit width of radixSort: 2048 counters (16 KiB) per
// digit fit in L1, and a 2^22-element coordinate space takes two passes.
const radixBits = 11

// sortHits orders the PDC-SH hit coordinates ascending, in time linear
// in their number. With withIdx it also returns idx, where idx[i] is
// the position in the input of the hit now at i, so values collected in
// input order can be found after the sort. The input is reordered in
// place; the result may live in a scratch buffer instead.
//
// Only the bits below the highest bit in which two coordinates differ
// are sorted on: the bits above it are shared by every coordinate, so a
// server's hits inside a 2^22-element object take two passes whatever
// their absolute offset. The index travels beside the coordinates as a
// uint32 payload, so every uint64 coordinate orders correctly.
func sortHits(coords []uint64, withIdx bool) ([]uint64, []uint32) {
	n := len(coords)
	var idx []uint32
	if withIdx {
		idx = make([]uint32, n)
		for i := range idx {
			idx[i] = uint32(i)
		}
	}
	if n < 2 {
		return coords, idx
	}
	or, and := uint64(0), ^uint64(0)
	for _, c := range coords {
		or |= c
		and &= c
	}
	vb := bits.Len64(or ^ and)
	var pbuf []uint32
	if withIdx {
		pbuf = make([]uint32, n)
	}
	return radixSort(coords, make([]uint64, n), idx, pbuf, vb)
}

// radixSort is a stable LSD radix sort of keys on their low width bits,
// radixBits per pass. When pay is non-nil it is permuted alongside the
// keys. kbuf and pbuf are scratch of len(keys); the sorted keys and
// payload are returned, in either the inputs or the scratch. A pass
// whose digit is the same for every key is skipped.
func radixSort(keys, kbuf []uint64, pay, pbuf []uint32, width int) ([]uint64, []uint32) {
	n := len(keys)
	src, dst := keys, kbuf
	psrc, pdst := pay, pbuf
	for sh := 0; sh < width; sh += radixBits {
		var cnt [1 << radixBits]int
		for _, k := range src {
			cnt[(k>>sh)&(1<<radixBits-1)]++
		}
		if cnt[(src[0]>>sh)&(1<<radixBits-1)] == n {
			continue
		}
		// Exclusive prefix sums turn the counts into bucket offsets.
		sum := 0
		for d, c := range cnt {
			cnt[d] = sum
			sum += c
		}
		if psrc == nil {
			for _, k := range src {
				d := (k >> sh) & (1<<radixBits - 1)
				dst[cnt[d]] = k
				cnt[d]++
			}
		} else {
			for i, k := range src {
				d := (k >> sh) & (1<<radixBits - 1)
				dst[cnt[d]] = k
				pdst[cnt[d]] = psrc[i]
				cnt[d]++
			}
			psrc, pdst = pdst, psrc
		}
		src, dst = dst, src
	}
	return src, psrc
}
