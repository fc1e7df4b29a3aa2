package scenario

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestRunE16ResolveFast runs the committed E16 scenario in fast mode: all
// four phases must record throughput, the serial rig must never coalesce
// and the pipelined rig must coalesce on the hot chaining path. The
// report must round-trip through the JSON the CI gate reads, and the
// gate must flag a phase the baseline has and the run lacks. Fast mode
// shrinks the load, so the ratio and p95 assertions are not judged here.
func TestRunE16ResolveFast(t *testing.T) {
	sc, err := Load("e16_resolve")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, RunOptions{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"referral-serial", "chaining-serial", "referral-batched", "chaining-coalesced"} {
		p := rep.Phase(name)
		if p == nil {
			t.Fatalf("phase %q missing", name)
		}
		if p.Sent == 0 || p.ThroughputPerSec <= 0 {
			t.Errorf("%s: no throughput recorded: %+v", name, p)
		}
		if p.Errors > 0 {
			t.Errorf("%s: %d errors", name, p.Errors)
		}
	}
	for _, name := range []string{"referral-serial", "chaining-serial"} {
		if hit := rep.Phase(name).CoalesceHitRate; hit != 0 {
			t.Errorf("serial rig coalesced on %s: hit rate %f", name, hit)
		}
	}
	if rep.Phase("chaining-coalesced").CoalesceHitRate <= 0 {
		t.Error("pipelined rig never coalesced on the hot chaining path")
	}

	path := filepath.Join(t.TempDir(), "BENCH_scenario_e16.json")
	if err := WriteReport(rep, path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Phases) != len(rep.Phases) || len(back.Assertions) != len(rep.Assertions) {
		t.Fatalf("report did not round-trip: %+v", back)
	}
	back.Phases = append(back.Phases, PhaseReport{Name: "ghost"})
	if err := CheckRegression(back, rep); err == nil || !strings.Contains(err.Error(), `phase "ghost" missing`) {
		t.Errorf("gate missed a dropped phase: %v", err)
	}
}
