// The fault sweep: a (fault rate x policy) matrix quantifying how
// gracefully each tiering system degrades when migration copies abort
// transiently (DESIGN.md §6). Unlike the figure matrices, every cell
// is normalised to the *same policy's* fault-free run, which removes
// baseline placement quality. The rate is part of the cell seed, so
// each row also draws its own access stream: a row's deviation from
// 1 mixes fault sensitivity with stream noise (EXPERIMENTS.md "What
// the sweeps measure").
package bench

import (
	"context"
	"fmt"

	"memtis/internal/sim"
)

// FaultRates are the standard sweep points: copy-abort probabilities
// in parts per million (0 = the fault-free reference each policy is
// normalised against).
var FaultRates = []uint32{0, 1_000, 10_000, 50_000}

// faultCoord spells one sweep cell's ratio coordinate. The rate is
// folded into the coordinate so CellSeed gives every (rate, policy)
// cell an independent, worker-count-invariant stream.
func faultCoord(rt Ratio, ratePpm uint32) string {
	return fmt.Sprintf("%s+%dppm", rt.Name, ratePpm)
}

// FaultSweep runs every policy at every copy-abort rate on one
// workload and tiering ratio. The swept rate overrides
// cfg.Faults.MigrateFailPpm; any throttle/stall schedule in cfg.Faults
// applies to all cells alike. A zero rate with no other fault field
// set runs the genuinely unfaulted machine. Rates always include the
// 0 reference (prepended when missing); each cell's Value is its
// throughput normalised to the same policy's rate-0 run, and the
// table has one row per rate.
func (r *Runner) FaultSweep(ctx context.Context, cfg Config, wname string, rt Ratio, pols []string, rates []uint32) (*Matrix, Table, error) {
	if pols == nil {
		pols = Policies
	}
	if rates == nil {
		rates = FaultRates
	}
	if rates[0] != 0 {
		rates = append([]uint32{0}, rates...)
	}
	var cells []sweepCell
	for _, rate := range rates {
		for _, p := range pols {
			cells = append(cells, sweepCell{workload: wname, coord: faultCoord(rt, rate), policy: p,
				run: func(c Config) sim.Result {
					c.Faults.MigrateFailPpm = rate
					return RunOne(wname, p, rt, c)
				}})
		}
	}
	m, err := r.sweep(ctx, cfg, cells, func(i int) int { return i % len(pols) })
	if err != nil {
		return nil, Table{}, err
	}
	title := fmt.Sprintf("fault sweep: %s %s throughput vs copy-abort rate (normalised to each policy's fault-free run, seed %d)",
		wname, rt.Name, cfg.Seed)
	return m, sweepTable(title, append([]string{"fault rate"}, pols...), m, len(rates),
		func(i int) []interface{} { return []interface{}{ppmPercent(rates[i])} }), nil
}

// ppmPercent spells a parts-per-million rate as a percentage.
func ppmPercent(ppm uint32) string { return fmt.Sprintf("%.2f%%", float64(ppm)/10_000) }
