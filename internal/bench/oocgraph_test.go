package bench

import "testing"

// TestAblationOOCGraph pins the out-of-core topology acceptance criteria:
// every paged variant trains bit-identically to the in-RAM CSR, and at the
// fixed byte budget prefetch+admission beats plain paged-LRU on both
// virtual epoch time and hit rate.
func TestAblationOOCGraph(t *testing.T) {
	rows, _ := oocGraphRun.get(t, AblationOOCGraph)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byName := map[string]OOCGraphRow{}
	for _, r := range rows {
		byName[r.Variant] = r
		if r.EpochTime <= 0 || len(r.Losses) == 0 {
			t.Errorf("%s: empty result %+v", r.Variant, r)
		}
		if !r.BitIdentical {
			t.Errorf("%s: losses diverge from the in-RAM baseline (%v vs %v)",
				r.Variant, r.Losses, rows[0].Losses)
		}
	}
	lru := byName["paged-lru"]
	pf := byName["paged+prefetch"]
	adm := byName["paged+prefetch+admit"]
	for _, r := range []OOCGraphRow{lru, pf, adm} {
		if r.TopoHitRate <= 0 || r.TopoHitRate >= 1 {
			t.Errorf("%s: topo hit rate %v out of range", r.Variant, r.TopoHitRate)
		}
		if r.TopoResidentBytes > r.TopoCacheBytes {
			t.Errorf("%s: resident %d over budget %d", r.Variant, r.TopoResidentBytes, r.TopoCacheBytes)
		}
	}
	if lru.PrefetchHits != 0 || lru.AdmissionRejects != 0 {
		t.Errorf("paged-lru should neither prefetch nor reject: %+v", lru)
	}
	if pf.PrefetchHits == 0 {
		t.Error("paged+prefetch recorded no prefetch hits")
	}
	if adm.AdmissionRejects == 0 {
		t.Error("paged+prefetch+admit recorded no admission rejects")
	}
	// The headline: at the same byte budget, prefetch+admission must not
	// lose to plain LRU on either axis, and the paged path must cost more
	// virtual time than the in-RAM baseline it replaces (faults are real).
	if adm.EpochTime > lru.EpochTime {
		t.Errorf("prefetch+admission epoch %v slower than paged-lru %v", adm.EpochTime, lru.EpochTime)
	}
	if adm.TopoHitRate < lru.TopoHitRate {
		t.Errorf("prefetch+admission topo hit rate %v below paged-lru %v", adm.TopoHitRate, lru.TopoHitRate)
	}
	inRAM := byName["in-RAM"]
	if lru.EpochTime <= inRAM.EpochTime {
		t.Errorf("paged-lru epoch %v not slower than in-RAM %v", lru.EpochTime, inRAM.EpochTime)
	}
}
