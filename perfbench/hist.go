package main

import (
	"math"
	"sort"
)

// denseLimit bounds the values a hist counts in its dense array; larger
// values go to an overflow slice, so every quantile stays exact.
const denseLimit = 1 << 16

// hist holds non-negative integer samples (cycles or host nanoseconds)
// and answers exact nearest-rank quantiles. Small values are counted in
// a dense array, so memory stays flat however many fast-path samples a
// run takes; the rare large ones are kept verbatim.
type hist struct {
	dense []uint32
	over  []int64
	n     uint64
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.n++
	if v < denseLimit {
		if h.dense == nil {
			h.dense = make([]uint32, denseLimit)
		}
		h.dense[v]++
		return
	}
	h.over = append(h.over, v)
}

// merge adds every sample of o to h.
func (h *hist) merge(o *hist) {
	if o.dense != nil {
		if h.dense == nil {
			h.dense = make([]uint32, denseLimit)
		}
		for v, k := range o.dense {
			h.dense[v] += k
		}
	}
	h.over = append(h.over, o.over...)
	h.n += o.n
}

// count returns the number of samples.
func (h *hist) count() uint64 { return h.n }

// rank returns the nearest-rank position (1-based) of quantile q among
// n samples: the smallest rank r with r/n >= q.
func rank(q float64, n uint64) uint64 {
	r := uint64(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the exact nearest-rank q-quantile, or 0 when empty.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	r := rank(q, h.n)
	var cum uint64
	for v, k := range h.dense {
		cum += uint64(k)
		if cum >= r {
			return int64(v)
		}
	}
	sort.Slice(h.over, func(i, j int) bool { return h.over[i] < h.over[j] })
	return h.over[r-cum-1]
}

// ratio returns num/den, or 0 when the base is zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perKop returns n per thousand ops, or 0 when no op ran.
func perKop(n, ops float64) float64 { return ratio(1000*n, ops) }

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
