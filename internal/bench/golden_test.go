package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestSingleTenantGolden pins the multi-tenant compatibility path:
// a single-tenant run's counters CSV and result fields must be
// byte-identical to the pre-multi-tenant simulator. The golden file
// was generated from the seed tree before any tenant code landed; a
// diff here means the tenant layer leaked into single-space runs
// (a new unconditional counter, a changed access stream, a tagged
// vpn reaching the TLB with a non-zero tag, ...).
func TestSingleTenantGolden(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Accesses = 200_000
	m, _, err := Sequential().RunMatrix(context.Background(), cfg,
		[]string{"silo"}, []Ratio{Ratio1to8}, []string{"memtis", "tpp"})
	if err != nil {
		t.Fatal(err)
	}
	out := m.CountersCSV()
	for _, c := range m.Cells {
		r := c.Result
		out += fmt.Sprintf("result,%s,%s,%s,accesses=%d,appns=%d,wallns=%d,fasthit=%.6f,rsspeak=%d,rssfinal=%d,promo=%d,demo=%d,faults=%d,tenants=%d\n",
			c.Workload, c.Ratio, c.Policy, r.Accesses, r.AppNS, r.WallNS, r.FastHitRatio,
			r.RSSPeak, r.RSSFinal, r.VM.Promotions, r.VM.Demotions, r.VM.Faults, len(r.Tenants))
	}
	want, err := os.ReadFile(filepath.Join("testdata", "single_tenant.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("single-tenant output diverged from pre-multi-tenant golden\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}
