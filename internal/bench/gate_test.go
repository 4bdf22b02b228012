package bench

import (
	"bytes"
	"reflect"
	"testing"

	"memtis/internal/obs"
	"memtis/internal/pebs"
	"memtis/internal/sim"
	"memtis/internal/tenant"
	"memtis/internal/vm"
	"memtis/internal/workload"
)

// The gate differential suite checks every policy's sim.Gated
// contract: a run in which the machine skips OnAccess on the accesses
// the policy's gate lets it ignore (untrapped, unsampled) must be
// indistinguishable from a run that calls OnAccess on every access —
// same sim.Result, same event trace — and its address spaces must pass
// the audit, which checks that every trap bit agrees between pt, bt
// and the page record.

// fullPath embeds only sim.Policy, hiding the policy's sim.Gated
// implementation, so the machine sends every access through Touch and
// OnAccess. It counts the OnAccess calls.
type fullPath struct {
	sim.Policy
	calls uint64
}

func (p *fullPath) OnAccess(tr vm.TouchResult, vpn uint64, write bool) uint64 {
	p.calls++
	return p.Policy.OnAccess(tr, vpn, write)
}

// gatedPath is fullPath with the policy's gate forwarded, so both
// sides of a comparison hide the same optional interfaces.
type gatedPath struct{ fullPath }

func (p *gatedPath) AccessGate() (*pebs.Sampler, bool) {
	if g, ok := p.Policy.(sim.Gated); ok {
		return g.AccessGate()
	}
	return nil, false
}

// gateRun is one side of a comparison.
type gateRun struct {
	res   sim.Result
	trace []byte
	calls uint64
}

// runGateSide runs drive on a machine built from mc under the named
// policy, gated or on the full path, and audits the machine after.
func runGateSide(t *testing.T, name string, gated bool, mc sim.Config, drive func(m *sim.Machine) string) gateRun {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	mc.Trace = obs.NewTracer(sink)
	full := &fullPath{Policy: NewPolicy(name)}
	var pol sim.Policy = full
	if gated {
		g := &gatedPath{fullPath{Policy: full.Policy}}
		pol, full = g, &g.fullPath
	}
	m := sim.NewMachine(mc, pol)
	res := m.Finish(drive(m))
	if err := m.Audit(); err != nil {
		t.Fatalf("%s (gated %v): audit: %v", name, gated, err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return gateRun{res: res, trace: buf.Bytes(), calls: full.calls}
}

// compareGate runs one cell both ways under every policy and requires
// identical results and traces, and — except for the ungated
// memtis-hybrid — fewer OnAccess calls on the gated side.
func compareGate(t *testing.T, mc func(pol string) sim.Config, drive func(m *sim.Machine) string) {
	t.Helper()
	for _, name := range AllPolicies {
		full := runGateSide(t, name, false, mc(name), drive)
		gated := runGateSide(t, name, true, mc(name), drive)
		if !bytes.Equal(full.trace, gated.trace) {
			t.Errorf("%s: gated event trace differs from the full path's (%d vs %d bytes)",
				name, len(gated.trace), len(full.trace))
		}
		if !reflect.DeepEqual(full.res, gated.res) {
			t.Errorf("%s: gated result differs from the full path's:\n full %+v\ngated %+v",
				name, full.res, gated.res)
		}
		if len(full.trace) == 0 || full.res.Accesses == 0 {
			t.Errorf("%s: empty run proves nothing", name)
		}
		switch {
		case name == "memtis-hybrid":
			if gated.calls != full.calls {
				t.Errorf("%s: ungated policy saw %d of %d accesses", name, gated.calls, full.calls)
			}
		case gated.calls >= full.calls:
			t.Errorf("%s: the gate skipped no OnAccess call (%d of %d)", name, gated.calls, full.calls)
		}
	}
}

// gateModelCell compares one Table 2 model at 1/64 of its paper RSS.
func gateModelCell(t *testing.T, model string, r Ratio, faultPpm uint32) {
	spec, err := workload.SpecByName(model)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.NewScaled(model, spec.PaperRSSGB/64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed, cfg.RecordNS = 5, 1_000_000
	cfg.Faults.MigrateFailPpm = faultPpm
	compareGate(t,
		func(pol string) sim.Config { return MachineFor(w.Spec(), r, pol, cfg) },
		func(m *sim.Machine) string { w.Run(m, 100_000); return w.Name() })
}

func TestGateMatchesFullPathTable2(t *testing.T) {
	for _, w := range workload.All() {
		for _, r := range []Ratio{Ratio1to2, Ratio1to8} {
			t.Run(w.Name()+"/"+r.Name, func(t *testing.T) { gateModelCell(t, w.Name(), r, 0) })
		}
	}
}

func TestGateMatchesFullPathMigrateFaults(t *testing.T) {
	gateModelCell(t, "btree", Ratio1to8, 50_000)
}

func TestGateMatchesFullPathTenantMix(t *testing.T) {
	_, rss := table2EquivSpecs(false)
	compareGate(t,
		func(string) sim.Config { return tenantMachine(rss, Ratio1to8, 42, 0) },
		func(m *sim.Machine) string {
			specs, _ := table2EquivSpecs(false)
			tn, err := tenant.New(tenant.Config{Tenants: specs, Slice: 4096})
			if err != nil {
				t.Fatal(err)
			}
			tn.Run(m, 80_000)
			return tn.Name()
		})
}
