package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEventWheelOrder drives the wheel with random schedules — delays
// past its horizon (forcing growth), bursts onto one cycle, pushes onto
// the cycle being drained, and clock jumps over pending cycles — and
// checks every event pops exactly once, no earlier than its cycle, in
// the (cycle, seq) order a reference sort gives. The slab must never
// hold more entries than the peak number of pending events.
func TestEventWheelOrder(t *testing.T) {
	type key struct {
		cycle int64
		seq   uint64
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := newEventWheel(1 + rng.Intn(8))
		var pushed, popped []key
		peak := 0
		push := func(cycle int64) {
			q.push(event{cycle: cycle})
			pushed = append(pushed, key{cycle, q.seq})
			peak = max(peak, q.len())
		}
		var now int64
		for step := 0; step < 3000; step++ {
			for i := rng.Intn(4); i > 0; i-- {
				delay := int64(1 + rng.Intn(12))
				if rng.Intn(40) == 0 {
					delay = int64(1 + rng.Intn(700)) // past the horizon
				}
				burst := 1 + rng.Intn(3)
				for j := 0; j < burst; j++ {
					push(now + delay)
				}
			}
			for {
				e, ok := q.pop(now)
				if !ok {
					break
				}
				if e.cycle > now {
					t.Fatalf("seed %d: event for cycle %d popped at %d", seed, e.cycle, now)
				}
				popped = append(popped, key{e.cycle, e.seq})
				if rng.Intn(8) == 0 {
					push(now) // same-cycle push while draining
				}
			}
			now += 1 + int64(rng.Intn(2)*rng.Intn(3)) // sometimes skip cycles
		}
		for ; q.len() > 0; now++ {
			for e, ok := q.pop(now); ok; e, ok = q.pop(now) {
				popped = append(popped, key{e.cycle, e.seq})
			}
		}
		sort.Slice(pushed, func(i, j int) bool {
			if pushed[i].cycle != pushed[j].cycle {
				return pushed[i].cycle < pushed[j].cycle
			}
			return pushed[i].seq < pushed[j].seq
		})
		if len(popped) != len(pushed) {
			t.Fatalf("seed %d: pushed %d events, popped %d", seed, len(pushed), len(popped))
		}
		for i := range pushed {
			if popped[i] != pushed[i] {
				t.Fatalf("seed %d: pop %d is %+v, reference order wants %+v", seed, i, popped[i], pushed[i])
			}
		}
		if len(q.slab) > peak {
			t.Errorf("seed %d: slab holds %d entries, peak pending was %d", seed, len(q.slab), peak)
		}
		if len(q.head) <= 700 {
			t.Errorf("seed %d: wheel of %d buckets never grew past the longest delay", seed, len(q.head))
		}
	}
}

// TestRingFIFO checks the ring buffer keeps FIFO order across wrap-around
// and growth.
func TestRingFIFO(t *testing.T) {
	var r ring[int]
	next, want := 0, 0
	for step := 0; step < 200; step++ {
		for i := 0; i < step%7; i++ {
			r.push(next)
			next++
		}
		for i := 0; i < step%5 && r.len() > 0; i++ {
			if got := r.pop(); got != want {
				t.Fatalf("pop %d, want %d", got, want)
			}
			want++
		}
	}
	for r.len() > 0 {
		if got := r.pop(); got != want {
			t.Fatalf("pop %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d of %d", want, next)
	}
}
