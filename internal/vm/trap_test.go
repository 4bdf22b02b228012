package vm

import (
	"testing"

	"memtis/internal/tier"
)

// TestSetTrapGatesTouchFast pins the trap contract: TouchFast declines
// every access to a trapped page, reads and writes, base and huge, the
// full Touch still serves it, and the trap survives migration and
// stays in agreement between pt, bt and the record (Audit).
func TestSetTrapGatesTouchFast(t *testing.T) {
	as := newAS(t, 4, 16, true)
	huge := as.Reserve(tier.HugePageSize)
	small := as.Reserve(3 * tier.BasePageSize)
	hp := as.Touch(huge.BaseVPN+3, true).Page
	bp := as.Touch(small.BaseVPN, true).Page
	if !hp.IsHuge() || bp.IsHuge() {
		t.Fatal("setup: want one huge and one base page")
	}
	audit := func(when string) {
		t.Helper()
		if err := as.Audit(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	fast := func(vpn uint64, write bool) bool {
		_, _, ok := as.TouchFast(vpn, write)
		return ok
	}
	for _, c := range []struct {
		pg  *Page
		vpn uint64
	}{{hp, huge.BaseVPN + 3}, {bp, small.BaseVPN}} {
		if !fast(c.vpn, false) || !fast(c.vpn, true) {
			t.Fatalf("page %d: untrapped steady-state access declined", c.pg.VPN)
		}
		as.SetTrap(c.pg, true)
		audit("after SetTrap(on)")
		if !c.pg.Trapped() || fast(c.vpn, false) || fast(c.vpn, true) {
			t.Fatalf("page %d: TouchFast served a trapped page", c.pg.VPN)
		}
		if res := as.Touch(c.vpn, false); res.Page != c.pg || res.Faulted {
			t.Fatalf("page %d: Touch of a trapped page = %+v", c.pg.VPN, res)
		}
		if _, ok := as.Migrate(c.pg, tier.CapacityTier); !ok {
			t.Fatalf("page %d: migration failed", c.pg.VPN)
		}
		audit("after migrating a trapped page")
		if fast(c.vpn, false) {
			t.Fatalf("page %d: migration dropped the trap", c.pg.VPN)
		}
		as.SetTrap(c.pg, false)
		audit("after SetTrap(off)")
		if tr, _, ok := as.TouchFast(c.vpn, false); !ok || tr != tier.CapacityTier {
			t.Fatalf("page %d: untrapped access = tier %v, ok %v", c.pg.VPN, tr, ok)
		}
	}
	// A huge page's trap lives in its bt entry only, so a write to an
	// already-written subpage must consult bt as well, and so must the
	// first write to another subpage.
	as.SetTrap(hp, true)
	if fast(huge.BaseVPN+3, true) {
		t.Fatal("TouchFast served a write to a trapped huge page from pt")
	}
	if _, _, ok := as.TouchFirstWrite(huge.BaseVPN + 9); ok || hp.Touched(9) {
		t.Fatal("TouchFirstWrite served a trapped huge page")
	}
	// Split replaces the record: its subpages start untrapped.
	subs, _ := as.Split(hp, func(int) tier.ID { return tier.NoTier })
	audit("after splitting a trapped huge page")
	for _, sp := range subs {
		if sp.Trapped() || !fast(sp.VPN, false) {
			t.Fatalf("split subpage %d inherited the trap", sp.VPN)
		}
	}
	// A dead page's trap no longer touches the table.
	as.SetTrap(hp, false)
	audit("after SetTrap on a dead page")
}

// TestAuditCatchesTrapDesync corrupts the trap bit in each place it is
// kept and expects Audit to notice.
func TestAuditCatchesTrapDesync(t *testing.T) {
	as := newAS(t, 4, 16, true)
	huge := as.Reserve(tier.HugePageSize)
	small := as.Reserve(tier.BasePageSize)
	hp := as.Touch(huge.BaseVPN, false).Page
	bp := as.Touch(small.BaseVPN, false).Page
	for _, c := range []struct {
		name    string
		corrupt func()
	}{
		{"base pte", func() { as.pt[bp.VPN] ^= pteTrap }},
		{"huge bt entry", func() { as.bt[hp.VPN/tier.SubPages] ^= pteTrap }},
		{"huge pt slot", func() { as.pt[hp.VPN+5] ^= pteTrap }},
		{"base record", func() { bp.trap = !bp.trap }},
	} {
		c.corrupt()
		err := as.Audit()
		c.corrupt()
		if err == nil {
			t.Errorf("%s: Audit missed a trap desync", c.name)
		}
		if err := as.Audit(); err != nil {
			t.Fatalf("%s: restored table fails audit: %v", c.name, err)
		}
	}
}

// TestFreeTrimsExactlyWithChurn runs a reserve/touch/free cycle at the
// end of the address space, as 603.bwaves does, and checks after every
// Free that the table ends just past the last mapped slot — the trim
// skips the run it found unmapped last time without changing where it
// stops — including when a fault re-maps freed address space inside
// that run.
func TestFreeTrimsExactlyWithChurn(t *testing.T) {
	as := newAS(t, 4, 64, true)
	live := as.Reserve(tier.HugePageSize + 5*tier.BasePageSize)
	for vpn := live.BaseVPN; vpn < live.BaseVPN+live.Pages; vpn++ {
		as.Touch(vpn, true)
	}
	var freed []Region
	lastMapped := func() int {
		n := len(as.pt)
		for n > 0 && as.pt[n-1] == 0 {
			n--
		}
		return n
	}
	for cycle := 0; cycle < 40; cycle++ {
		r := as.Reserve(tier.HugePageSize + 3*tier.BasePageSize)
		as.Touch(r.BaseVPN+1, cycle%2 == 0)
		as.Touch(r.BaseVPN+tier.SubPages+2, true)
		if cycle%7 == 3 && len(freed) > 0 {
			// Touch freed address space again: the fault lands inside
			// the known-unmapped run and must shorten it.
			old := freed[len(freed)/2]
			as.Touch(old.BaseVPN+tier.SubPages, false)
		}
		want := uint64(len(as.pt))
		if cycle%5 == 4 {
			// Free a region below the tail: nothing to trim past it.
			as.Free(freed[0])
		} else {
			as.Free(r)
			freed = append(freed, r)
		}
		if err := as.Audit(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if got := lastMapped(); len(as.pt) != got || uint64(len(as.pt)) > want {
			t.Fatalf("cycle %d: table length %d, last mapped slot ends at %d", cycle, len(as.pt), got)
		}
	}
}

// TestTouchFirstWriteMatchesTouch checks that TouchFirstWrite marks a
// subpage's first write exactly as Touch does, declines trapped and
// unmapped slots without side effects, and leaves Touch returning what
// it would have returned alone.
func TestTouchFirstWriteMatchesTouch(t *testing.T) {
	build := func() (*AddressSpace, Region, Region) {
		as := newAS(t, 4, 16, true)
		huge := as.Reserve(tier.HugePageSize)
		small := as.Reserve(2 * tier.BasePageSize)
		as.Touch(huge.BaseVPN, false)
		as.Touch(small.BaseVPN, false)
		return as, huge, small
	}
	ref, rh, rs := build()
	got, gh, gs := build()
	for _, c := range []struct{ ref, got uint64 }{
		{rh.BaseVPN + 17, gh.BaseVPN + 17}, {rs.BaseVPN, gs.BaseVPN},
	} {
		want := ref.Touch(c.ref, true)
		tr, huge, ok := got.TouchFirstWrite(c.got)
		if !ok || tr != want.Tier || huge != want.Huge {
			t.Fatalf("vpn %d: TouchFirstWrite = %v %v %v, Touch = %+v", c.got, tr, huge, ok, want)
		}
		res := got.Touch(c.got, true)
		if res.Page.VPN != want.Page.VPN || res.Page.TouchedCount() != want.Page.TouchedCount() {
			t.Fatalf("vpn %d: Touch after TouchFirstWrite maps page %+v, want %+v", c.got, res.Page, want.Page)
		}
		res.Page, want.Page = nil, nil
		if res != want {
			t.Fatalf("vpn %d: Touch after TouchFirstWrite = %+v, want %+v", c.got, res, want)
		}
	}
	for _, as := range []*AddressSpace{ref, got} {
		if err := as.Audit(); err != nil {
			t.Fatal(err)
		}
	}
	if !got.Lookup(gh.BaseVPN).Touched(17) || got.Lookup(gh.BaseVPN).TouchedCount() != 1 {
		t.Fatal("TouchFirstWrite did not mark the huge page's subpage")
	}
	bp := got.Lookup(gs.BaseVPN)
	got.SetTrap(bp, true)
	if _, _, ok := got.TouchFirstWrite(gs.BaseVPN); ok {
		t.Fatal("TouchFirstWrite served a trapped base page")
	}
	if _, _, ok := got.TouchFirstWrite(gs.BaseVPN + 1); ok {
		t.Fatal("TouchFirstWrite served an unmapped slot")
	}
	if err := got.Audit(); err != nil {
		t.Fatal(err)
	}
}
