package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockFromDuration(t *testing.T) {
	c := DefaultClock
	cases := []struct {
		d    time.Duration
		want Time
	}{
		{0, 0},
		{time.Second, 200_000_000},
		{time.Millisecond, 200_000},
		{12500 * time.Microsecond, 2_500_000}, // the paper's 12.5 ms improved switch
		{85 * time.Millisecond, 17_000_000},   // the paper's 85 ms full switch
		{-time.Second, 0},
	}
	for _, tc := range cases {
		if got := c.FromDuration(tc.d); got != tc.want {
			t.Errorf("FromDuration(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestClockToDurationRoundTrip(t *testing.T) {
	c := DefaultClock
	for _, cy := range []Time{1, 200, 1_000_000, 2_500_000, 17_000_000} {
		d := c.ToDuration(cy)
		back := c.FromDuration(d)
		// Round-trip should be exact to within one cycle of float error.
		diff := int64(back) - int64(cy)
		if diff < -1 || diff > 1 {
			t.Errorf("round trip %d cycles -> %v -> %d", cy, d, back)
		}
	}
}

func TestCyclesPerByte(t *testing.T) {
	c := DefaultClock
	// 45 MB/s on a 200 MHz clock: 200e6/45e6 = 4.444 cycles/byte.
	got := c.CyclesPerByte(45)
	if got < 4.4 || got > 4.5 {
		t.Errorf("CyclesPerByte(45) = %v, want ~4.44", got)
	}
	if c.CyclesPerByte(45).Cycles(0) != 0 {
		t.Errorf("Cycles(0) should be 0")
	}
	if c.CyclesPerByte(45).Cycles(1) == 0 {
		t.Errorf("Cycles(1) should be nonzero (round up)")
	}
	// 1 MB at 45 MB/s is 1/45 s = 4,444,444 cycles (±1 for rounding).
	mb := c.CyclesPerByte(45).Cycles(1_000_000)
	if mb < 4_444_444 || mb > 4_444_446 {
		t.Errorf("Cycles(1MB) at 45 MB/s = %d, want ~4444445", mb)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %d, want 30", e.Now())
	}
}

func TestEngineFIFOAmongSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	if !ev.Cancel() {
		t.Fatal("Cancel on pending event returned false")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if n := live(e); n != 0 {
		t.Fatalf("%d live events after run", n)
	}
}

func TestEngineScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.ScheduleAt(5, func() {})
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %d events, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Errorf("Now() = %d after RunUntil(25)", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("second RunUntil fired %d total, want 4", len(fired))
	}
	if e.Now() != 100 {
		t.Errorf("Now() = %d, want 100", e.Now())
	}
}

func TestEventChaining(t *testing.T) {
	// Events scheduled from within events preserve causality.
	e := NewEngine()
	var trace []Time
	var step func()
	step = func() {
		trace = append(trace, e.Now())
		if len(trace) < 5 {
			e.Schedule(7, step)
		}
	}
	e.Schedule(0, step)
	e.Run()
	for i, tm := range trace {
		if tm != Time(i*7) {
			t.Fatalf("chained event %d fired at %d, want %d", i, tm, i*7)
		}
	}
}

func TestResourceSerialization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	var done []Time
	// Three 100-cycle jobs requested at t=0 must complete at 100, 200, 300.
	for i := 0; i < 3; i++ {
		r.Use(100, func() { done = append(done, e.Now()) })
	}
	e.Run()
	want := []Time{100, 200, 300}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions %v, want %v", done, want)
		}
	}
}

func TestResourceIdleGap(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	r.Use(50, nil)
	e.Schedule(200, func() {
		if r.freeAt > e.Now() {
			t.Error("resource should be idle at t=200")
		}
		end := r.Use(10, nil)
		if end != 210 {
			t.Errorf("Use after idle gap ends at %d, want 210", end)
		}
	})
	e.Run()
}

func TestResourceBlock(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	r.Block(500)
	if r.freeAt != 500 {
		t.Fatalf("FreeAt = %d, want 500", r.freeAt)
	}
	end := r.Use(10, nil)
	if end != 510 {
		t.Fatalf("Use after Block ends at %d, want 510", end)
	}
	// Blocking to an earlier time is a no-op.
	r.Block(100)
	if r.freeAt != 510 {
		t.Fatalf("Block backwards moved FreeAt to %d", r.freeAt)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("different seeds produced %d collisions in 1000 draws", same)
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced absorbing zero state")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandIntnUniform(t *testing.T) {
	r := NewRand(11)
	counts := make([]int, 8)
	const draws = 80000
	for i := 0; i < draws; i++ {
		counts[r.Intn(8)]++
	}
	for i, c := range counts {
		// Each bucket should hold ~10000; allow generous 15% slack.
		if c < 8500 || c > 11500 {
			t.Errorf("bucket %d count %d far from uniform", i, c)
		}
	}
}

func TestRandBoolEdges(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

// Property: for any batch of delays, the engine fires events in
// nondecreasing time order and ends with the clock at the max delay.
func TestEngineOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		var max Time
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a resource's completion times under FIFO Use are exactly the
// prefix sums of the durations (when all requests arrive at t=0).
func TestResourcePrefixSumProperty(t *testing.T) {
	prop := func(durs []uint8) bool {
		e := NewEngine()
		r := NewResource(e)
		var ends []Time
		for _, d := range durs {
			r.Use(Time(d)+1, func() { ends = append(ends, e.Now()) })
		}
		e.Run()
		var sum Time
		for i, d := range durs {
			sum += Time(d) + 1
			if ends[i] != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
