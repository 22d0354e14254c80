package model

import (
	"math"
	"strconv"
	"testing"
)

// TestAppendDecimalMatchesStrconv holds the digest encoder's integer
// writer to strconv.AppendInt at every digit-count boundary of its
// fast path, on both sides of the 10⁸ fallback, and at the extremes.
func TestAppendDecimalMatchesStrconv(t *testing.T) {
	t.Parallel()
	values := []int64{-1, -10, math.MinInt64, math.MaxInt64, 1e9, 12345678, 20406}
	for pow := int64(1); pow <= 1e8; pow *= 10 {
		values = append(values, pow-1, pow, pow+1) // 0, 1, 2, 9, 10, 11, …, 10⁸−1, 10⁸, 10⁸+1
	}
	for _, v := range values {
		for _, prefix := range []string{"", "e"} {
			want := strconv.AppendInt([]byte(prefix), v, 10)
			got := AppendDecimal([]byte(prefix), v)
			if string(got) != string(want) {
				t.Errorf("AppendDecimal(%q, %d) = %q, want %q", prefix, v, got, want)
			}
		}
	}
	// A widening stride across the whole fast-path range.
	for v := int64(0); v < 1e8; v += 1 + v/97 {
		if got, want := string(AppendDecimal(nil, v)), strconv.FormatInt(v, 10); got != want {
			t.Fatalf("AppendDecimal(%d) = %q, want %q", v, got, want)
		}
	}
}
