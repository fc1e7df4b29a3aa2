package scenario

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// healthyReport is the fixture every assertion kind is judged against: a
// fast steady phase, a degraded phase that shed, and clean registration
// audits.
func healthyReport() *Report {
	return &Report{
		Phases: []PhaseReport{
			{
				Name: "steady", Rig: "r", Kind: "open",
				Sent: 100, InBudget: 98, Errors: 0,
				P95Micros:        int64(2 * time.Millisecond / time.Microsecond),
				ThroughputPerSec: 50, GoodputPerSec: 49,
			},
			{
				Name: "wave", Rig: "r", Kind: "open",
				Sent: 200, InBudget: 80, Shed: 90, Expired: 20, Errors: 10,
				P95Micros:        int64(40 * time.Millisecond / time.Microsecond),
				ThroughputPerSec: 40, GoodputPerSec: 40,
			},
		},
		Registrations: []RegistrationAudit{{Rig: "r", Expected: 16, Registered: 16}},
	}
}

// TestAssertions drives every assertion kind through a passing and a
// failing evaluation; the failure detail must be an actionable sentence
// naming the measured value, not a bare boolean.
func TestAssertions(t *testing.T) {
	cases := []struct {
		name string
		a    Assertion
		// mutate breaks the healthy report for the failing half.
		mutate   func(*Report)
		failWant string // substring of the failure detail
	}{
		{
			name:     "p95-ceiling",
			a:        Assertion{Kind: AssertP95Ceiling, Phase: "steady", Max: 5 * time.Millisecond},
			mutate:   func(r *Report) { r.Phase("steady").P95Micros = int64(9 * time.Millisecond / time.Microsecond) },
			failWant: "exceeds ceiling",
		},
		{
			name:     "goodput-floor",
			a:        Assertion{Kind: AssertGoodputFloor, Phase: "steady", Min: 40},
			mutate:   func(r *Report) { r.Phase("steady").GoodputPerSec = 3 },
			failWant: "below floor",
		},
		{
			name:     "shed-floor",
			a:        Assertion{Kind: AssertShedFloor, Phase: "wave", Min: 1},
			mutate:   func(r *Report) { r.Phase("wave").Shed = 0 },
			failWant: "admission control did not engage",
		},
		{
			name:     "error-ceiling",
			a:        Assertion{Kind: AssertErrorCeiling, Phase: "steady", MaxCount: 0},
			mutate:   func(r *Report) { r.Phase("steady").Errors = 3 },
			failWant: "3 errors, ceiling 0",
		},
		{
			name:     "throughput-ratio-floor",
			a:        Assertion{Kind: AssertThroughputRatio, Num: "steady", Den: "wave", Min: 1.2},
			mutate:   func(r *Report) { r.Phase("steady").ThroughputPerSec = 10 },
			failWant: "below floor",
		},
		{
			name:     "retention-floor",
			a:        Assertion{Kind: AssertRetentionFloor, Num: "wave", Den: "steady", Min: 0.5},
			mutate:   func(r *Report) { r.Phase("wave").GoodputPerSec = 1 },
			failWant: "below floor",
		},
		{
			name:     "retention-ceiling",
			a:        Assertion{Kind: AssertRetentionCeiling, Num: "wave", Den: "steady", MaxRatio: 0.9},
			mutate:   func(r *Report) { r.Phase("wave").GoodputPerSec = 49 },
			failWant: "no longer collapses",
		},
		{
			name:     "zero-lost-registrations",
			a:        Assertion{Kind: AssertZeroLostCoverage},
			mutate:   func(r *Report) { r.Registrations[0].Registered = 15 },
			failWant: "coverage was lost",
		},
		{
			name:     "zero-lost-registrations probe failure",
			a:        Assertion{Kind: AssertZeroLostCoverage},
			mutate:   func(r *Report) { r.Registrations[0].ProbeFailures = 2 },
			failWant: "probes failed",
		},
		{
			name:     "missing phase",
			a:        Assertion{Kind: AssertP95Ceiling, Phase: "steady", Max: time.Second},
			mutate:   func(r *Report) { r.Phases = r.Phases[1:] },
			failWant: "not in report",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := &Scenario{Asserts: []Assertion{tc.a}}

			rep := healthyReport()
			Evaluate(sc, rep)
			if len(rep.Assertions) != 1 {
				t.Fatalf("got %d results, want 1", len(rep.Assertions))
			}
			if res := rep.Assertions[0]; !res.Pass || !rep.Pass {
				t.Fatalf("healthy report failed: %s", res.Detail)
			}

			broken := healthyReport()
			tc.mutate(broken)
			Evaluate(sc, broken)
			res := broken.Assertions[0]
			if res.Pass || broken.Pass {
				t.Fatalf("broken report passed: %s", res.Detail)
			}
			if !strings.Contains(res.Detail, tc.failWant) {
				t.Errorf("failure detail %q does not mention %q", res.Detail, tc.failWant)
			}
			if res.Kind != tc.a.Kind {
				t.Errorf("result kind %q, want %q", res.Kind, tc.a.Kind)
			}
		})
	}
}

// TestEvaluateMixedResults checks that one failing assertion fails the
// run while the passing ones keep their own verdicts.
func TestEvaluateMixedResults(t *testing.T) {
	sc := &Scenario{Asserts: []Assertion{
		{Kind: AssertShedFloor, Phase: "wave", Min: 1},
		{Kind: AssertGoodputFloor, Phase: "steady", Min: 1000},
	}}
	rep := healthyReport()
	Evaluate(sc, rep)
	if rep.Pass {
		t.Error("report passed with a failing assertion")
	}
	if !rep.Assertions[0].Pass || rep.Assertions[1].Pass {
		t.Errorf("verdicts wrong: %+v", rep.Assertions)
	}
}

// TestEvaluateUnknownKind: an unrecognized kind must fail loudly, never
// silently pass.
func TestEvaluateUnknownKind(t *testing.T) {
	rep := healthyReport()
	Evaluate(&Scenario{Asserts: []Assertion{{Kind: "vibes"}}}, rep)
	if rep.Pass || rep.Assertions[0].Pass {
		t.Error("unknown assertion kind passed")
	}
	if !strings.Contains(rep.Assertions[0].Detail, "unknown assertion kind") {
		t.Errorf("detail %q does not name the problem", rep.Assertions[0].Detail)
	}
}

// waveReport builds a report of interleaved wN-on / wN-off phases with
// the given per-wave p95 ratios (off fixed at 10ms).
func waveReport(ratios ...float64) *Report {
	r := &Report{}
	for i, ratio := range ratios {
		r.Phases = append(r.Phases,
			PhaseReport{Name: fmt.Sprintf("w%d-ref-off", i), P95Micros: 10000},
			PhaseReport{Name: fmt.Sprintf("w%d-ref-on", i), P95Micros: int64(10000 * ratio)})
	}
	return r
}

// TestWaveRatioCeiling checks the E17 statistic: the median of per-wave
// paired p95 ratios, so one noisy wave cannot fail (or pass) the gate.
func TestWaveRatioCeiling(t *testing.T) {
	sc := &Scenario{Asserts: []Assertion{{Kind: AssertWaveRatioCeiling, Num: "ref-on", Den: "ref-off", MaxRatio: 1.05}}}
	eval := func(r *Report) AssertionResult {
		t.Helper()
		Evaluate(sc, r)
		if len(r.Assertions) != 1 {
			t.Fatalf("got %d results, want 1", len(r.Assertions))
		}
		return r.Assertions[0]
	}

	// One wave hit by a 3x stall: the median ignores it.
	if res := eval(waveReport(1.01, 1.02, 0.99, 3.0, 1.00, 1.03)); !res.Pass {
		t.Errorf("one noisy wave failed the gate: %s", res.Detail)
	}
	// A real 10% overhead in most waves fails, one quiet wave cannot hide it.
	if res := eval(waveReport(1.10, 1.12, 0.98, 1.11, 1.09, 1.10)); res.Pass || !strings.Contains(res.Detail, "above ceiling") {
		t.Errorf("systematic overhead passed: %s", res.Detail)
	}
	// Errors in a paired phase void the measurement.
	r := waveReport(1.0, 1.0)
	r.Phase("w1-ref-off").Errors = 2
	if res := eval(r); res.Pass || !strings.Contains(res.Detail, "errors") {
		t.Errorf("errored wave passed: %s", res.Detail)
	}
	// A wave without its partner is a broken scenario, not a pass.
	r = waveReport(1.0)
	r.Phases = append(r.Phases, PhaseReport{Name: "w1-ref-on", P95Micros: 10000})
	if res := eval(r); res.Pass || !strings.Contains(res.Detail, "no w1-ref-off") {
		t.Errorf("unpaired wave passed: %s", res.Detail)
	}
	if res := eval(&Report{}); res.Pass {
		t.Error("report without waves passed")
	}
}

// TestSpansFloor: a traced run that recorded no spans at the MDM did
// not exercise tracing and must fail.
func TestSpansFloor(t *testing.T) {
	sc := &Scenario{Asserts: []Assertion{{Kind: AssertSpansFloor, Min: 1}}}
	rep := &Report{}
	Evaluate(sc, rep)
	if rep.Pass || !strings.Contains(rep.Assertions[0].Detail, "tracing was not exercised") {
		t.Errorf("zero spans passed: %+v", rep.Assertions[0])
	}
	rep = &Report{MDMSpans: 40}
	Evaluate(sc, rep)
	if !rep.Pass {
		t.Errorf("40 spans failed: %s", rep.Assertions[0].Detail)
	}
}
