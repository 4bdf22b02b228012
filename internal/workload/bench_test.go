package workload

import (
	"testing"

	"memtis/internal/sim"
	"memtis/internal/tier"
)

// stepSink keeps the drawn VPNs live.
var stepSink uint64

// drawsPerMachine is how many draws one initialised machine serves, the
// order of a Figure 5 cell's budget. 603.bwaves' stepper reserves and
// frees a buffer every 1024 draws, and each reservation takes fresh
// address space, so without a bound the page table would grow with b.N.
const drawsPerMachine = 1 << 18

// BenchmarkStepper measures each model's steady-phase stream alone,
// one drawn access per Fill and iteration. Machines are built and the model
// initialised with the timer stopped, and the drawn accesses are never
// issued, so the figure is the generator's share of a simulated access
// (603.bwaves' draws include its Reserve/FreeRegion churn).
func BenchmarkStepper(b *testing.B) {
	for _, w := range All() {
		b.Run(w.Name(), func(b *testing.B) {
			var steady Stream
			var op [1]sim.Op
			for i := 0; i < b.N; i++ {
				if i%drawsPerMachine == 0 {
					b.StopTimer()
					// Room for every initialisation phase: the
					// first-touch sweeps plus graph500's
					// 12%-of-budget generation pass.
					m := machineFor(w.Spec(), 1)
					steady = w.build(w.newCtx(m, 4*w.Spec().RSSBytes()/tier.BasePageSize))
					b.StartTimer()
				}
				steady.Fill(op[:])
				stepSink = op[0].VPN
			}
		})
	}
}
