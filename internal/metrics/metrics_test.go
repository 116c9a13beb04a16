package metrics

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestStats(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Max(xs) != 4 {
		t.Errorf("Max = %v", Max(xs))
	}
}

func TestStatsEmpty(t *testing.T) {
	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty inputs should yield 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure X", "a", "b")
	tb.AddRow(1, 2.5)
	tb.AddRow("x", "y")
	if len(tb.rows) != 2 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
	s := tb.String()
	for _, want := range []string{"Figure X", "a", "b", "1", "2.50", "x", "y"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
}

// Property: min <= Mean <= Max.
func TestOrderingProperty(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		lo, hi := slices.Min(xs), Max(xs)
		m := Mean(xs)
		eps := 1e-9 * (math.Abs(hi) + 1)
		return lo <= m+eps && m <= hi+eps
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedSlowdown(t *testing.T) {
	// Long job: plain response/service ratio.
	if got := BoundedSlowdown(200, 100, 10); got != 2 {
		t.Fatalf("long job: %v", got)
	}
	// Short job: the bound replaces the tiny service time.
	if got := BoundedSlowdown(50, 1, 10); got != 5 {
		t.Fatalf("short job: %v", got)
	}
	// Never below 1.
	if got := BoundedSlowdown(5, 100, 10); got != 1 {
		t.Fatalf("floor: %v", got)
	}
	// Degenerate inputs clamp to 1.
	if got := BoundedSlowdown(5, 0, 0); got != 1 {
		t.Fatalf("degenerate: %v", got)
	}
}
