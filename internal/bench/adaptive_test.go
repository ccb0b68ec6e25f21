package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestAdaptiveBeatsFixed is the bench-level acceptance check: on the
// oscillating worst case the adaptive controller must beat the paper's
// fixed heuristic on combined miss rate — and, because every avoided
// coalesce-layer round trip is radix-sort work saved, on throughput too.
// The simulator is deterministic, so the margins are exact, not
// statistical.
func TestAdaptiveBeatsFixed(t *testing.T) {
	res, err := RunAdaptive(200, 400, 128)
	if err != nil {
		t.Fatal(err)
	}
	f, ad := res.Fixed, res.Adaptive
	if f.CombinedMiss == 0 {
		t.Fatal("workload does not overrun the fixed configuration; the comparison is vacuous")
	}
	if ad.CombinedMiss >= f.CombinedMiss/4 {
		t.Errorf("combined miss rate: adaptive %.5f not well below fixed %.5f",
			ad.CombinedMiss, f.CombinedMiss)
	}
	if ad.PerCPUMissRate >= f.PerCPUMissRate {
		t.Errorf("per-CPU miss rate: adaptive %.4f not below fixed %.4f",
			ad.PerCPUMissRate, f.PerCPUMissRate)
	}
	if ad.PairsPerSec <= f.PairsPerSec {
		t.Errorf("throughput: adaptive %.0f not above fixed %.0f", ad.PairsPerSec, f.PairsPerSec)
	}
	if ad.TargetGrows == 0 {
		t.Error("controller never grew the target")
	}
	if f.TargetGrows+f.TargetShrinks+f.GblTargetGrows+f.GblTargetShrink != 0 {
		t.Error("fixed run recorded controller decisions")
	}

	// Determinism: the same parameters reproduce the same numbers.
	res2, err := RunAdaptive(200, 400, 128)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Fixed != res.Fixed || res2.Adaptive != res.Adaptive {
		t.Errorf("not deterministic:\n%+v\n%+v", res.Adaptive, res2.Adaptive)
	}
}

// TestAdaptiveRejectsEmptyBursts: a run with no bursts, or empty ones,
// has no operations to rate; it must fail up front rather than print NaN
// pairs/sec (which -json cannot encode).
func TestAdaptiveRejectsEmptyBursts(t *testing.T) {
	for _, tc := range []struct{ bursts, burst int }{{0, 400}, {200, 0}, {-1, 400}, {200, -5}} {
		if _, err := RunAdaptive(tc.bursts, tc.burst, 128); err == nil {
			t.Errorf("RunAdaptive(%d, %d, 128) accepted a degenerate workload", tc.bursts, tc.burst)
		}
	}
}

// TestAdaptiveJSON checks the -json payload round-trips and carries the
// derived miss rates as plain fields.
func TestAdaptiveJSON(t *testing.T) {
	res, err := RunAdaptive(50, 400, 128)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"fixed"`, `"adaptive"`, `"fixedStats"`, `"adaptiveStats"`,
		`"combinedMissRate"`, `"allocMissRate"`, `"TargetGrows"`, `"classes"`,
	} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("JSON payload missing %s", key)
		}
	}
	var back AdaptiveResult
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Adaptive.FinalTarget != res.Adaptive.FinalTarget {
		t.Errorf("round trip lost FinalTarget: %d vs %d",
			back.Adaptive.FinalTarget, res.Adaptive.FinalTarget)
	}

	// The rendered table must include both variants.
	var sb strings.Builder
	res.Table().Fprint(&sb)
	if !strings.Contains(sb.String(), "adaptive controller") ||
		!strings.Contains(sb.String(), "fixed heuristic") {
		t.Errorf("table missing variants:\n%s", sb.String())
	}
}
