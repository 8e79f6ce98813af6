package alto

import "math/bits"

// KeySorter sorts linearized keys ascending and carries their values along,
// by a stable least-significant-digit radix sort: equal keys keep their
// input order. Build and the out-of-core shard writer share it. The scratch
// buffers are kept across calls, so a writer sorting one shard after
// another allocates once; the zero value is ready to use.
type KeySorter struct {
	lo, hi []uint64
	vals   []float64
	counts []int
}

// maxRadixBits bounds a digit's width. Wide digits mean fewer passes: at
// 130k-190k keys (one out-of-core shard of the benchmark proxies), on a
// 2-vCPU x86-64 host, 16-bit digits sorted 28- to 46-bit keys 10-30% faster
// than 11-bit ones, and a 28- or 32-bit key takes two passes. Short inputs get narrower digits
// (radixWidth), so that clearing and summing the counts stays small next to
// the scatter.
const maxRadixBits = 16

// radixWidth is the widest digit worth using on n keys: about n/4 counts.
func radixWidth(n int) int {
	return min(maxRadixBits, max(4, bits.Len(uint(n))-2))
}

// digit is one radix pass: bits [shift, shift+width) of the low or high key
// word.
type digit struct {
	hi           bool
	shift, width uint
}

// radixDigits splits the significant bits of each key word into the fewest
// digits of at most width bits, of near-equal width, low word first.
func radixDigits(keyBits, width int) []digit {
	var ds []digit
	for word, wbits := range [2]int{min(keyBits, 64), max(keyBits-64, 0)} {
		n := (wbits + width - 1) / width
		shift := 0
		for i := 0; i < n; i++ {
			w := (wbits - shift) / (n - i)
			ds = append(ds, digit{hi: word == 1, shift: uint(shift), width: uint(w)})
			shift += w
		}
	}
	return ds
}

// Sort orders keys (lo, plus hi for keys wider than 64 bits; nil otherwise)
// and vals in place. keyBits is the key width: bits above it are zero and
// are never sorted on, and a pass whose digit every key shares is skipped.
func (s *KeySorter) Sort(keyBits int, lo, hi []uint64, vals []float64) {
	n := len(lo)
	if n < 2 {
		return
	}
	if hi == nil {
		keyBits = min(keyBits, 64)
	}
	s.lo = grow(s.lo, n)
	s.vals = grow(s.vals, n)
	srcLo, srcHi, srcVals := lo, hi, vals
	dstLo, dstHi, dstVals := s.lo, []uint64(nil), s.vals
	if hi != nil {
		s.hi = grow(s.hi, n)
		dstHi = s.hi
	}
	width := radixWidth(n)
	s.counts = grow(s.counts, 1<<width)
	for _, d := range radixDigits(keyBits, width) {
		word := srcLo
		if d.hi {
			word = srcHi
		}
		mask := uint64(1)<<d.width - 1
		counts := s.counts[:1<<d.width]
		clear(counts)
		for _, k := range word {
			counts[(k>>d.shift)&mask]++
		}
		if counts[(word[0]>>d.shift)&mask] == n {
			continue // every key shares this digit: the pass is the identity
		}
		sum := 0
		for b, c := range counts {
			counts[b] = sum
			sum += c
		}
		for p, k := range word {
			b := (k >> d.shift) & mask
			q := counts[b]
			counts[b]++
			dstLo[q] = srcLo[p]
			dstVals[q] = srcVals[p]
			if srcHi != nil {
				dstHi[q] = srcHi[p]
			}
		}
		srcLo, dstLo = dstLo, srcLo
		srcHi, dstHi = dstHi, srcHi
		srcVals, dstVals = dstVals, srcVals
	}
	if &srcLo[0] != &lo[0] {
		copy(lo, srcLo)
		copy(hi, srcHi)
		copy(vals, srcVals)
	}
}

// grow returns buf with room for n elements, reusing its backing array when
// it is large enough.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
