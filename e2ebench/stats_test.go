package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{22, 23, 94, 500, 999, 1000, 1001, 5000} {
		s := summarize(seq(n))
		// seq holds 1..n, so the samples above the tail value are
		// exactly n - Tail of them.
		if above := n - int(s.Tail); above < minBeyond || above != s.Beyond {
			t.Errorf("n=%d: tail q=%.4f value %.0f has %d samples above (Beyond=%d), want >= %d",
				n, s.TailQ, s.Tail, above, s.Beyond, minBeyond)
		}
	}
}

func TestTailIsP99WithEnoughSamples(t *testing.T) {
	s := summarize(seq(1000))
	if s.TailQ != 0.99 || s.Tail != 990 {
		t.Fatalf("n=1000: tail q=%v value=%v, want p99 = 990", s.TailQ, s.Tail)
	}
	if s.P50 != 500 {
		t.Fatalf("n=1000: p50=%v, want 500", s.P50)
	}
	if s.Max != 1000 || s.N != 1000 {
		t.Fatalf("n=1000: max=%v n=%d", s.Max, s.N)
	}
}

func TestTailFallsBackBelowThousandSamples(t *testing.T) {
	s := summarize(seq(94))
	if s.TailQ >= 0.99 {
		t.Fatalf("n=94: reported q=%v, but p99 of 94 samples has none beyond it", s.TailQ)
	}
	if s.Beyond != minBeyond || s.Tail != 84 {
		t.Fatalf("n=94: tail %v with %d beyond, want 84 with exactly %d (highest qualifying rank)", s.Tail, s.Beyond, minBeyond)
	}
	for _, n := range []int{1, 10, 14, 20, 21} {
		// Ten samples beyond would put the tail below the median.
		if s := summarize(seq(n)); s.TailQ != 1 || s.Tail != float64(n) || s.Beyond != 0 || s.Tail < s.P50 {
			t.Fatalf("n=%d: q=%v tail=%v p50=%v, want the max", n, s.TailQ, s.Tail, s.P50)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1}, {0.26, 2}, {0.5, 2}, {0.75, 3}, {1, 4}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
}
