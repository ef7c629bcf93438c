package xbar

import (
	"testing"
	"testing/quick"

	"getm/internal/sim"
)

func TestOccupancy(t *testing.T) {
	eng := sim.NewEngine()
	x := New(eng, 1, 1, Config{Latency: 5, FlitBytes: 32})
	cases := map[int]sim.Cycle{0: 1, 1: 1, 32: 1, 33: 2, 64: 2, 65: 3}
	for size, want := range cases {
		if got := x.Occupancy(size); got != want {
			t.Errorf("occupancy(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestSendLatency(t *testing.T) {
	eng := sim.NewEngine()
	x := New(eng, 2, 2, Config{Latency: 5, FlitBytes: 32})
	var arrived sim.Cycle
	eng.Schedule(0, func() {
		x.Send(0, 1, 16, func() { arrived = eng.Now() })
	})
	eng.Run(0)
	// depart 0, arriveStart 5, +1 flit cycle = 6
	if arrived != 6 {
		t.Fatalf("arrival = %d, want 6", arrived)
	}
	if x.Bytes != 16 || x.Messages != 1 {
		t.Fatalf("traffic accounting: bytes=%d msgs=%d", x.Bytes, x.Messages)
	}
}

func TestSourceSerialization(t *testing.T) {
	eng := sim.NewEngine()
	x := New(eng, 1, 2, Config{Latency: 5, FlitBytes: 32})
	var t1, t2 sim.Cycle
	eng.Schedule(0, func() {
		// Two 64-byte (2-flit) messages from the same source to different
		// destinations: the second must wait for the first's flits.
		x.Send(0, 0, 64, func() { t1 = eng.Now() })
		x.Send(0, 1, 64, func() { t2 = eng.Now() })
	})
	eng.Run(0)
	if t1 != 7 { // depart 0, arrive 5..7
		t.Fatalf("t1 = %d, want 7", t1)
	}
	if t2 != 9 { // depart 2, arrive 7..9
		t.Fatalf("t2 = %d, want 9", t2)
	}
}

func TestDestinationSerialization(t *testing.T) {
	eng := sim.NewEngine()
	x := New(eng, 2, 1, Config{Latency: 5, FlitBytes: 32})
	var t1, t2 sim.Cycle
	eng.Schedule(0, func() {
		x.Send(0, 0, 64, func() { t1 = eng.Now() })
		x.Send(1, 0, 64, func() { t2 = eng.Now() })
	})
	eng.Run(0)
	if t1 != 7 || t2 != 9 {
		t.Fatalf("t1=%d t2=%d, want 7 and 9 (dst port busy)", t1, t2)
	}
}

// Property: messages between the same (src,dst) pair are delivered in send
// order — the FIFO guarantee GETM's cleanup-before-retry depends on.
func TestPointToPointFIFOProperty(t *testing.T) {
	prop := func(sizes []uint8, gaps []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(gaps) < len(sizes) {
			return true
		}
		eng := sim.NewEngine()
		x := New(eng, 3, 3, Config{Latency: 5, FlitBytes: 32})
		var order []int
		when := sim.Cycle(0)
		for i, s := range sizes {
			i, s := i, int(s)
			when += sim.Cycle(gaps[i] % 7)
			eng.At(when, func() {
				x.Send(1, 2, s, func() { order = append(order, i) })
			})
		}
		eng.Run(0)
		if len(order) != len(sizes) {
			return false
		}
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcast(t *testing.T) {
	eng := sim.NewEngine()
	x := New(eng, 1, 4, Config{Latency: 5, FlitBytes: 32})
	got := map[int]bool{}
	eng.Schedule(0, func() {
		x.Broadcast(0, 8, func(dst int) { got[dst] = true })
	})
	eng.Run(0)
	if len(got) != 4 {
		t.Fatalf("broadcast reached %d/4 destinations", len(got))
	}
	if x.Bytes != 32 {
		t.Fatalf("broadcast traffic = %d, want 32 (accounted per copy)", x.Bytes)
	}
}

func TestNewPair(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPair(eng, 15, 6, DefaultConfig())
	var upArrived, downArrived bool
	eng.Schedule(0, func() {
		p.Up.Send(14, 5, 8, func() { upArrived = true })
		p.Down.Send(5, 14, 8, func() { downArrived = true })
	})
	eng.Run(0)
	if !upArrived || !downArrived {
		t.Fatal("pair directions not wired")
	}
	up, down := p.TrafficBytes()
	if up != 8 || down != 8 {
		t.Fatalf("traffic = (%d,%d)", up, down)
	}
}

func TestPortRangePanics(t *testing.T) {
	eng := sim.NewEngine()
	x := New(eng, 1, 1, Config{Latency: 1, FlitBytes: 8})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range port did not panic")
		}
	}()
	x.Send(0, 3, 8, func() {})
}

// The port counts are New's arguments: a crossbar without a port on either
// side is refused.
func TestNewNeedsPorts(t *testing.T) {
	for _, ports := range [][2]int{{0, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with %d source and %d destination ports did not panic", ports[0], ports[1])
				}
			}()
			New(sim.NewEngine(), ports[0], ports[1], DefaultConfig())
		}()
	}
}
