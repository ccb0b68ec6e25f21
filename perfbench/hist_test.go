package main

import (
	"math/rand"
	"sort"
	"testing"
)

// nearestRank is the textbook definition: sort, then take the
// ceil(q*n)-th smallest sample.
func nearestRank(xs []int64, q float64) int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank(q, uint64(len(s)))-1]
}

func TestQuantileSmall(t *testing.T) {
	var h hist
	if got := h.quantile(0.5); got != 0 {
		t.Errorf("empty hist: quantile = %d, want 0", got)
	}
	for v := int64(1); v <= 10; v++ {
		h.add(v)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.001, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.99, 10}, {1, 10}} {
		if got := h.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) of 1..10 = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestQuantileMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		var h, a, b hist
		var xs []int64
		n := 1 + r.Intn(5000)
		for i := 0; i < n; i++ {
			v := int64(r.Intn(200))
			switch r.Intn(10) {
			case 0:
				v = denseLimit - 2 + int64(r.Intn(4)) // straddles the dense limit
			case 1:
				v = int64(r.Intn(1 << 22)) // overflow slice
			}
			xs = append(xs, v)
			h.add(v)
			if i%2 == 0 {
				a.add(v)
			} else {
				b.add(v)
			}
		}
		a.merge(&b)
		for _, q := range []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			want := nearestRank(xs, q)
			if got := h.quantile(q); got != want {
				t.Fatalf("trial %d n=%d: quantile(%v) = %d, want %d", trial, n, q, got, want)
			}
			if got := a.quantile(q); got != want {
				t.Fatalf("trial %d n=%d: merged quantile(%v) = %d, want %d", trial, n, q, got, want)
			}
		}
		if h.count() != uint64(n) || a.count() != uint64(n) {
			t.Fatalf("count = %d / %d, want %d", h.count(), a.count(), n)
		}
	}
}

func TestRatioZeroBase(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
	if got := perKop(3, 0); got != 0 {
		t.Errorf("perKop(3, 0) = %v, want 0", got)
	}
	if got := perKop(3, 1500); got != 2 {
		t.Errorf("perKop(3, 1500) = %v, want 2", got)
	}
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestLayerMetricsZeroBase(t *testing.T) {
	for name, v := range layerMetrics(&counters{}, 0) {
		if v != 0 {
			t.Errorf("%s = %v on an empty window, want 0", name, v)
		}
	}
	var w counters
	w[cAllocs], w[cAllocRefills] = 1000, 100
	w[cGlobalGets], w[cGlobalRefills] = 100, 25
	w[cReclaimSteps] = 30
	w[cBusWait] = 500
	m := layerMetrics(&w, 2000)
	for name, want := range map[string]float64{
		"core.percpu.alloc_hit_ratio":    0.9,
		"core.percpu.free_hit_ratio":     0, // no frees: no base
		"core.global.gets_per_kop":       50,
		"core.global.get_miss_ratio":     0.25,
		"core.reclaim.steps_per_kop":     15,
		"machine.bus_wait_cycles_per_op": 0.25,
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
}
