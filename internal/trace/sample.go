package trace

// Interval sampling: the machine registers probes (closures over live
// component state) and the run loop calls TakeSample at every sample
// boundary. Sampling only *reads* state — it never schedules engine events —
// so a sampled run is cycle-identical to an unsampled one; gpu.Run drives
// the boundaries by running the engine in chunks.

// probeKind selects how a probe's readings become series values.
type probeKind uint8

const (
	// gaugeProbe records the instantaneous value at each sample.
	gaugeProbe probeKind = iota
	// rateProbe records the counter delta divided by the elapsed cycles
	// (e.g. IPC, bytes/cycle).
	rateProbe
	// deltaProbe records the raw counter delta per interval
	// (e.g. aborts/interval).
	deltaProbe
)

// probe is one registered time series.
type probe struct {
	name  string
	kind  probeKind
	gauge func() float64
	count func() uint64
	last  uint64
}

// AddGauge registers an instantaneous-value series (e.g. in-flight
// transactions, stall-buffer occupancy).
func (r *Recorder) AddGauge(name string, fn func() float64) {
	r.probes = append(r.probes, probe{name: name, kind: gaugeProbe, gauge: fn})
}

// AddRate registers a monotonic-counter series reported as delta per cycle
// (e.g. IPC from an instruction counter).
func (r *Recorder) AddRate(name string, fn func() uint64) {
	r.probes = append(r.probes, probe{name: name, kind: rateProbe, count: fn})
}

// AddDelta registers a monotonic-counter series reported as delta per
// interval (e.g. aborts per interval).
func (r *Recorder) AddDelta(name string, fn func() uint64) {
	r.probes = append(r.probes, probe{name: name, kind: deltaProbe, count: fn})
}

// SampleEvery returns the configured sampling interval in cycles (0 when
// interval sampling is disabled).
func (r *Recorder) SampleEvery() uint64 { return r.sampleEvery }

// TakeSample reads every probe at the given cycle and appends one row to the
// time series. Duplicate boundary cycles (e.g. the final sample landing on
// the last interval edge) are ignored.
func (r *Recorder) TakeSample(cycle uint64) {
	if len(r.probes) == 0 {
		return
	}
	var elapsed uint64
	if n := len(r.sampleCyc); n > 0 {
		if cycle <= r.sampleCyc[n-1] {
			return
		}
		elapsed = cycle - r.sampleCyc[n-1]
	} else {
		elapsed = cycle
	}
	row := make([]float64, len(r.probes))
	for i := range r.probes {
		p := &r.probes[i]
		switch p.kind {
		case gaugeProbe:
			row[i] = p.gauge()
		case rateProbe:
			cur := p.count()
			if elapsed > 0 {
				row[i] = float64(cur-p.last) / float64(elapsed)
			}
			p.last = cur
		case deltaProbe:
			cur := p.count()
			row[i] = float64(cur - p.last)
			p.last = cur
		}
	}
	r.sampleCyc = append(r.sampleCyc, cycle)
	r.sampleRows = append(r.sampleRows, row)
}

// Finish ends recording once the run is over: it drops the engine that
// stamps events and every probe's closure, which reach the whole finished
// machine, so a caller that keeps the recorder (Result.Trace) keeps only its
// rings, probe names and samples. The recorder must not Emit or TakeSample
// afterwards.
func (r *Recorder) Finish() {
	r.eng = nil
	for i := range r.probes {
		r.probes[i].gauge, r.probes[i].count = nil, nil
	}
}

// SeriesNames returns the registered probe names in registration (= CSV
// column) order.
func (r *Recorder) SeriesNames() []string {
	names := make([]string, len(r.probes))
	for i := range r.probes {
		names[i] = r.probes[i].name
	}
	return names
}

// Samples returns the collected time series: one cycle per sample and one
// row of per-probe values (in SeriesNames order) per sample. The returned
// slices are the recorder's own storage; callers must not mutate them.
func (r *Recorder) Samples() (cycles []uint64, rows [][]float64) {
	return r.sampleCyc, r.sampleRows
}
