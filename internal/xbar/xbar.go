// Package xbar models the GPU's core ↔ memory-partition interconnect: two
// independent crossbars (one "up" toward the partitions, one "down" toward
// the cores), as in the paper's Table II (2 xbars, 5-cycle latency).
//
// Each crossbar serializes flits at its input and output ports: a message of
// n bytes occupies a port for ceil(n/flitBytes) cycles. Combined with the
// fixed traversal latency, delivery order between any (source, destination)
// pair matches send order — the point-to-point FIFO property that GETM's
// cleanup-before-retry sequence relies on (see DESIGN.md §4.2).
package xbar

import (
	"getm/internal/sim"
	"getm/internal/trace"
)

// Config describes one crossbar's timing; its port counts come from the
// machine (New).
type Config struct {
	// Latency is the fixed traversal time in cycles.
	Latency sim.Cycle
	// FlitBytes is the number of payload bytes transferred per cycle per
	// port (link width).
	FlitBytes int
}

// DefaultConfig mirrors Table II: 5-cycle latency; 288 GB/s at 1.4 GHz over 6
// partition ports is ~32 B/cycle per port.
func DefaultConfig() Config {
	return Config{Latency: 5, FlitBytes: 32}
}

// Crossbar is a single-direction interconnect.
type Crossbar struct {
	cfg     Config
	eng     *sim.Engine
	srcFree []sim.Cycle
	dstFree []sim.Cycle

	// Bytes accumulates total payload traffic (Fig 12).
	Bytes uint64
	// Messages counts deliveries.
	Messages uint64

	rec       *trace.Recorder
	traceKind trace.Kind

	// deliveries is the free list of broadcast copies (single goroutine per
	// machine, no locking); Recycle stocks it.
	deliveries *delivery
}

// delivery is one broadcast copy on its way to one destination. Pooled with
// its event prebuilt; it reaches the crossbar through x, which only a copy
// in flight has.
type delivery struct {
	x       *Crossbar
	deliver func(dst int)
	dst     int
	fn      func()
	next    *delivery
}

// deliveryStock keeps finished machines' broadcast copies (DESIGN §6).
var deliveryStock = sim.NewStock(func(d *delivery) **delivery { return &d.next })

func (x *Crossbar) getDelivery() *delivery {
	d := x.deliveries
	if d == nil {
		d = deliveryStock.Get()
	}
	if d == nil {
		d = &delivery{}
		d.fn = func() {
			// Recycle before deliver: it may broadcast again.
			x, deliver, dst := d.x, d.deliver, d.dst
			d.x, d.deliver = nil, nil
			d.next = x.deliveries
			x.deliveries = d
			deliver(dst)
		}
	} else {
		x.deliveries = d.next
	}
	d.x = x
	return d
}

// Recycle stocks the crossbar's free list for the next machine built in
// this process. The crossbar must not run afterwards.
func (x *Crossbar) Recycle() {
	deliveryStock.Put(x.deliveries)
	x.deliveries = nil
}

// SetTrace attaches the machine-wide event recorder (nil disables; the check
// on the send path is a single pointer compare). kind distinguishes the up
// and down directions in the trace.
func (x *Crossbar) SetTrace(rec *trace.Recorder, kind trace.Kind) {
	x.rec = rec
	x.traceKind = kind
}

// New creates a crossbar on the given engine with srcPorts input ports
// (sources) and dstPorts output ports (destinations); it is full duplex
// between them.
func New(eng *sim.Engine, srcPorts, dstPorts int, cfg Config) *Crossbar {
	if srcPorts <= 0 || dstPorts <= 0 {
		panic("xbar: need at least one port each way")
	}
	if cfg.FlitBytes <= 0 {
		panic("xbar: FlitBytes must be positive")
	}
	return &Crossbar{
		cfg:     cfg,
		eng:     eng,
		srcFree: make([]sim.Cycle, srcPorts),
		dstFree: make([]sim.Cycle, dstPorts),
	}
}

// Occupancy returns the port-cycles a message of size bytes occupies.
func (x *Crossbar) Occupancy(size int) sim.Cycle {
	if size <= 0 {
		return 1 // header-only flit
	}
	return sim.Cycle((size + x.cfg.FlitBytes - 1) / x.cfg.FlitBytes)
}

// Send transmits size payload bytes from src to dst and runs deliver when the
// tail flit arrives. It returns the delivery cycle.
func (x *Crossbar) Send(src, dst, size int, deliver func()) sim.Cycle {
	if src < 0 || src >= len(x.srcFree) || dst < 0 || dst >= len(x.dstFree) {
		panic("xbar: port out of range")
	}
	now := x.eng.Now()
	occ := x.Occupancy(size)

	depart := now
	if x.srcFree[src] > depart {
		depart = x.srcFree[src]
	}
	x.srcFree[src] = depart + occ

	arriveStart := depart + x.cfg.Latency
	if x.dstFree[dst] > arriveStart {
		arriveStart = x.dstFree[dst]
	}
	x.dstFree[dst] = arriveStart + occ
	done := arriveStart + occ

	x.Bytes += uint64(size)
	x.Messages++
	if x.rec != nil {
		// qwait = source-port queueing before departure; dur = total transit.
		x.rec.Emit(trace.SrcXbar, x.traceKind, int32(src),
			uint64(dst), uint64(size), uint64(depart-now), uint64(done-now))
	}
	x.eng.At(done, deliver)
	return done
}

// Broadcast sends the same payload from src to every destination port (used
// by the idealized EAPG signature broadcasts); deliver is invoked once per
// destination with its port id. Traffic is accounted per copy, and each copy
// travels as a pooled delivery, so a broadcast allocates nothing.
func (x *Crossbar) Broadcast(src, size int, deliver func(dst int)) {
	for dst := range x.dstFree {
		d := x.getDelivery()
		d.deliver, d.dst = deliver, dst
		x.Send(src, dst, size, d.fn)
	}
}

// Pair bundles the up (cores→partitions) and down (partitions→cores)
// crossbars with traffic accounting helpers.
type Pair struct {
	Up   *Crossbar
	Down *Crossbar
}

// NewPair builds both directions with the same flit width and latency.
func NewPair(eng *sim.Engine, cores, partitions int, cfg Config) *Pair {
	return &Pair{Up: New(eng, cores, partitions, cfg), Down: New(eng, partitions, cores, cfg)}
}

// Recycle stocks both directions' free lists (Crossbar.Recycle).
func (p *Pair) Recycle() {
	p.Up.Recycle()
	p.Down.Recycle()
}

// TrafficBytes returns (up, down) payload totals.
func (p *Pair) TrafficBytes() (uint64, uint64) { return p.Up.Bytes, p.Down.Bytes }

// SetTrace attaches the recorder to both directions.
func (p *Pair) SetTrace(rec *trace.Recorder) {
	p.Up.SetTrace(rec, trace.KXbarUp)
	p.Down.SetTrace(rec, trace.KXbarDown)
}
