package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the definition numpy calls "linear"); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// tail is a timing summary in the form the design asks for: the median,
// and the highest of a fixed ladder of percentiles that still has at least
// ten samples beyond it, with the sample count.
type tail struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	TailP  float64 `json:"tail_percentile"`
	TailAt float64 `json:"tail"`
}

func summarize(xs []float64) tail {
	t := tail{N: len(xs), P50: median(xs)}
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(len(xs))*(1-p/100) >= 10 {
			t.TailP, t.TailAt = p, quantile(xs, p/100)
			return t
		}
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

// compare checks got against want, bitwise when tol is 0, and describes
// the first difference; nil when they agree.
func compare(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range got {
		if tol == 0 && math.Float64bits(got[i]) != math.Float64bits(want[i]) ||
			tol != 0 && !almostEqual(got[i], want[i], tol) {
			return fmt.Errorf("[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// almostEqual is the float tolerance used for the PageRank and HITS
// oracle checks: summation order differs between the engine and the
// sequential oracle, so values agree to a relative 1e-9, not bitwise.
func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}
