package serve

import (
	"testing"
	"time"
)

// TestBackoff pins the restart backoff schedule documented on WithBackoff:
// the k-th consecutive restart (k >= 2) waits min(base<<(k-2), max), and
// the cap holds for any k, including shifts that would overflow.
func TestBackoff(t *testing.T) {
	const base, limit = time.Millisecond, 250 * time.Millisecond
	huge := time.Duration(1 << 62)
	cases := []struct {
		base, limit time.Duration
		k           int
		want        time.Duration
	}{
		{base, limit, 2, base},
		{base, limit, 3, 2 * base},
		{base, limit, 4, 4 * base},
		{base, limit, 9, 128 * base},
		{base, limit, 10, limit}, // 256ms capped
		{base, limit, 64, limit},
		{base, limit, 1 << 30, limit},
		{huge, huge, 2, huge},
		{huge, huge, 3, huge}, // base<<1 overflows int64
		{huge + 1, huge + 1, 4, huge + 1},
	}
	for _, c := range cases {
		e := &Engine{o: options{backoffBase: c.base, backoffMax: c.limit}}
		if got := e.backoff(c.k); got != c.want {
			t.Errorf("backoff(%d) with base %v, cap %v = %v, want %v", c.k, c.base, c.limit, got, c.want)
		}
	}
}
