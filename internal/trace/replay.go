package trace

import (
	"memtis/internal/sim"
	"memtis/internal/tier"
	"memtis/internal/workload"
)

// Capture attaches a trace writer to a machine: every access the
// machine executes is appended to w. It returns a detach function. Any
// write error is deferred to the writer's Flush.
func Capture(m *sim.Machine, w *Writer) (detach func()) {
	prev := m.AccessObserver
	m.AccessObserver = func(vpn uint64, write bool, now uint64) {
		_ = w.Add(vpn, write)
		if prev != nil {
			prev(vpn, write, now)
		}
	}
	return func() { m.AccessObserver = prev }
}

// Replay is a sim.Workload that re-issues a recorded access stream
// against a fresh machine, mapping the recorded address range into a
// newly reserved region. Replaying the same trace under different
// policies gives an exact apples-to-apples placement comparison.
type Replay struct {
	name string
	recs []Record
	min  uint64
	span uint64
}

// NewReplay builds a replay workload from records.
func NewReplay(name string, recs []Record) *Replay {
	st := Analyze(recs, 0)
	span := st.MaxVPN - st.MinVPN + 1
	if len(recs) == 0 {
		span = 1
	}
	return &Replay{name: name, recs: recs, min: st.MinVPN, span: span}
}

// Name implements sim.Workload.
func (r *Replay) Name() string { return r.name }

// Records returns the replayed record count.
func (r *Replay) Records() int { return len(r.recs) }

// SpanPages returns the size, in base pages, of the region Run reserves
// to hold the remapped trace (max recorded VPN - min + 1). Harnesses use
// it to budget machine capacity for a replay phase.
func (r *Replay) SpanPages() uint64 { return r.span }

// Run implements sim.Workload by driving the stream alone.
func (r *Replay) Run(m *sim.Machine, accesses uint64) { workload.Run(m, r, accesses) }

// Stream implements workload.Streamer: it reserves the region the trace
// is mapped into, then loops the trace until the budget is consumed (a
// trace shorter than the budget repeats, modelling the iterative
// structure of the original applications). An empty trace is an
// exhausted stream.
func (r *Replay) Stream(m *sim.Machine, budget uint64) workload.Stream {
	off := m.Reserve(r.span*tier.BasePageSize).BaseVPN - r.min
	next := 0
	return workload.FillFunc(func(dst []sim.Op) int {
		if len(r.recs) == 0 {
			return 0
		}
		for i := range dst {
			rec := r.recs[next]
			dst[i] = sim.Op{VPN: off + rec.VPN, Write: rec.Write}
			if next++; next == len(r.recs) {
				next = 0
			}
		}
		return len(dst)
	})
}

var _ workload.Streamer = (*Replay)(nil)
