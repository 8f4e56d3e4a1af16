package core

// Disabled-path cost gate for the request observability layer: the
// correlation context is read only inside already-instrumented
// Enabled() blocks and the per-tenant slot is one pointer check behind
// the same guard, so arming both must leave the fast fault path's cost
// within noise of the untagged baseline. This test measures it in
// interleaved rounds, tagged and untagged alternating so host drift
// hits both cells alike, keeps the best round per cell (jitter only
// ever slows a round), and gates at 2%.

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/mem/addr"
	"repro/internal/metrics"
)

const (
	obsCostOps      = 200_000
	obsCostRounds   = 3
	obsCostAttempts = 5
	obsCostLimit    = 1.02
)

// fastPathNS times the TLB-hit store loop on a privatized page,
// best-of obsCostRounds, interleaving the caller's two cells via the
// round callback ordering.
func fastPathNS(t *testing.T, parent *AddressSpace, base addr.V) float64 {
	t.Helper()
	best := 0.0
	for round := 0; round < obsCostRounds; round++ {
		runtime.GC()
		start := time.Now()
		for i := 0; i < obsCostOps; i++ {
			if err := parent.StoreByte(base, byte(i)); err != nil {
				t.Fatal(err)
			}
		}
		ns := float64(time.Since(start).Nanoseconds()) / obsCostOps
		if round == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// TestObservabilityArmedOverhead builds two identical fast-path cells
// — both with metrics collection on, one additionally carrying a
// request tag and a per-tenant slot — and asserts the armed cell costs
// at most 2% more than the plain one. Interleaved measurement (plain,
// armed, plain, armed ...) cancels host drift; a genuine overhead
// shows up in every attempt, so one in-budget attempt passes.
func TestObservabilityArmedOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation swamps a 2% latency budget")
	}
	if testing.Short() {
		t.Skip("measurement test")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	mkCell := func(tagged bool) (*AddressSpace, addr.V) {
		met := metrics.New()
		parent, base := zeroAllocParentWith(t, met)
		if tagged {
			parent.SetTenantSlot(met.RegisterTenant(1, "alpha"))
			parent.SetRequest(42)
		}
		// Privatize the target page so every store is a TLB hit.
		child, err := ForkWithOptions(parent, ForkOnDemand, ForkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		child.Recycle()
		if err := parent.StoreByte(base, 1); err != nil {
			t.Fatal(err)
		}
		return parent, base
	}
	plain, plainBase := mkCell(false)
	defer plain.Teardown()
	armed, armedBase := mkCell(true)
	defer armed.Teardown()

	worst := 0.0
	for attempt := 0; attempt < obsCostAttempts; attempt++ {
		var plainNS, armedNS float64
		// Alternate which cell runs first so slow drift within the
		// attempt charges both cells equally.
		if attempt%2 == 0 {
			plainNS = fastPathNS(t, plain, plainBase)
			armedNS = fastPathNS(t, armed, armedBase)
		} else {
			armedNS = fastPathNS(t, armed, armedBase)
			plainNS = fastPathNS(t, plain, plainBase)
		}
		ratio := armedNS / plainNS
		if ratio <= obsCostLimit {
			return
		}
		if ratio > worst {
			worst = ratio
		}
		t.Logf("attempt %d: armed %.1f ns vs plain %.1f ns (%.1f%% over)",
			attempt, armedNS, plainNS, (ratio-1)*100)
	}
	t.Errorf("request tagging + per-tenant metrics cost >%.0f%% on the fast fault path in all %d attempts (worst %.1f%%)",
		(obsCostLimit-1)*100, obsCostAttempts, (worst-1)*100)
}
