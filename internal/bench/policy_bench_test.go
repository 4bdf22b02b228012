// Per-policy access benchmarks: every OnAccess implementation runs on
// the machine's hot loop, so each policy gets its own sub-benchmark.
// Comparing BenchmarkPolicyAccess/<name> against BenchmarkMachineAccess
// (internal/sim, no policy) isolates the policy's per-access overhead;
// BenchmarkPolicyBatch/<name> measures the same accesses on the batched
// path every workload takes.
package bench

import (
	"math/rand"
	"testing"

	"memtis/internal/sim"
	"memtis/internal/tier"
)

// policyBenchMachine mirrors the internal/sim benchmark harness: a
// pre-faulted region under fast-tier pressure, Zipf probes precomputed
// so RNG cost stays out of the measured loop.
func policyBenchMachine(pol sim.Policy) (*sim.Machine, []uint64) {
	cfg := sim.Config{
		FastBytes: 16 << 20,
		CapBytes:  96 << 20,
		CapKind:   tier.NVM,
		THP:       true,
		Seed:      7,
	}
	m := sim.NewMachine(cfg, pol)
	r := m.Reserve(64 << 20)
	for vpn := r.BaseVPN; vpn < r.BaseVPN+r.Pages; vpn += tier.SubPages {
		m.Access(vpn, true)
	}
	rng := rand.New(rand.NewSource(11))
	z := rand.NewZipf(rng, 1.2, 1, r.Pages-1)
	vpns := make([]uint64, 1<<16)
	for i := range vpns {
		vpns[i] = r.BaseVPN + z.Uint64()
	}
	return m, vpns
}

func BenchmarkPolicyAccess(b *testing.B) {
	for _, name := range AllPolicies {
		b.Run(name, func(b *testing.B) {
			m, vpns := policyBenchMachine(NewPolicy(name))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Access(vpns[i&(len(vpns)-1)], i&7 == 0)
			}
		})
	}
}

// BenchmarkPolicyBatch issues BenchmarkPolicyAccess's accesses through
// Machine.AccessBatch in 256-op batches, as workload.Drive does, so a
// gated policy's skipped OnAccess calls show in its ns/op. One
// iteration is one access.
func BenchmarkPolicyBatch(b *testing.B) {
	const batch = 256
	for _, name := range AllPolicies {
		b.Run(name, func(b *testing.B) {
			m, vpns := policyBenchMachine(NewPolicy(name))
			ops := make([]sim.Op, len(vpns))
			for i, vpn := range vpns {
				ops[i] = sim.Op{VPN: vpn, Write: i&7 == 0}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				j := i & (len(ops) - 1)
				m.AccessBatch(ops[j : j+min(batch, b.N-i)])
			}
		})
	}
}
