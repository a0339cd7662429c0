package main

import "testing"

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

func TestQuantiles(t *testing.T) {
	xs := []float64{40, 10, 30, 20, 50} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50}, {0.125, 15}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := relIQR(xs); got != 20.0/30 {
		t.Errorf("relIQR = %v, want %v", got, 20.0/30)
	}
	if quantile(nil, 0.5) != 0 || relIQR(nil) != 0 {
		t.Error("empty samples must give 0")
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestHighPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, pct int
	}{{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 0}, {5, 0}} {
		v, pct := highPercentile(ramp(c.n))
		if pct != c.pct {
			t.Errorf("n=%d: reported p%d, want p%d", c.n, pct, c.pct)
		}
		if pct > 0 && beyond(c.n, pct) < tailSamples {
			t.Errorf("n=%d: p%d has only %d samples beyond it", c.n, pct, beyond(c.n, pct))
		}
		want := median(ramp(c.n))
		if c.pct > 0 {
			want = quantile(ramp(c.n), float64(c.pct)/100)
		}
		if v != want {
			t.Errorf("n=%d: value %v, want %v", c.n, v, want)
		}
	}
}

// The noise report's quartiles are the driver's: Python's
// statistics.quantiles([10, 20, ..., 100], n=4) is [27.5, 55, 82.5].
func TestDriverQuartilesMatchPython(t *testing.T) {
	xs := []float64{100, 10, 90, 20, 80, 30, 70, 40, 60, 50}
	if q1, q3 := driverQuartiles(xs); q1 != 27.5 || q3 != 82.5 {
		t.Errorf("quartiles of ten = %v, %v, want 27.5, 82.5", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) is [1.5, 4.0, 12.0].
	if q1, q3 := driverQuartiles([]float64{16, 1, 8, 2, 4}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of five = %v, %v, want 1.5, 12", q1, q3)
	}
}
