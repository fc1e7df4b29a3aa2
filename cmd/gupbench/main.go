// Command gupbench regenerates the experiment tables of EXPERIMENTS.md —
// the testbed-and-benchmark suite the paper's conclusion calls for. Every
// experiment runs the real components (client, MDM, data stores over TCP;
// substrate simulators behind adapters) and prints the measured table.
//
// Usage:
//
//	gupbench [-iters N] [e1 e2 … e19 | fig5 | all]
//	gupbench recovery [-sizes 100,1000,5000] [-lease-ttl 150ms] [-lease-grace 150ms] [-json out.json] [-detect-slack 1.0]
//	gupbench scenario <name|file.yaml> [-fast] [-seed N] [-json out.json] [-check baseline.json] [-v]
//	gupbench scenario -list
//
// E16 (resolve pipeline), E17 (tracing overhead) and E19 (overload
// protection) are committed scenarios: `gupbench e16` prints the table,
// and `gupbench scenario e16_resolve -check BENCH_scenario_e16.json` is
// the CI gate. -iters N shrinks every experiment for a smoke run.
//
// The recovery subcommand runs the E18 crash-recovery benchmark: it
// populates a journaled directory, abandons the MDM (crash), and measures
// the restart path (replay, listen, first resolve) plus the lease-expiry
// detection latency of a silent store. With -detect-slack it exits
// non-zero when detection overruns the claimed TTL+grace budget.
//
// The scenario subcommand runs a declarative scenario (a committed name
// like e20_mixed, or a .yaml file path) through the unified harness in
// internal/scenario: it builds the declared rigs, drives the phased
// workload mix, evaluates the file's assertions and exits non-zero when
// any fail, after confirming the breach with a second run. -fast shrinks
// the run for smoke testing (assertions become informational); -check
// gates against a committed baseline report.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"gupster/internal/bench"
	"gupster/internal/scenario"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "recovery" {
		runRecovery(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "scenario" {
		runScenario(os.Args[2:])
		return
	}

	iters := flag.Int("iters", 0, "override per-cell iteration count (0 = experiment default)")
	flag.Parse()

	opts := bench.Options{Iters: *iters}
	want := flag.Args()
	if len(want) == 0 || (len(want) == 1 && want[0] == "all") {
		want = nil
		for _, e := range bench.Experiments {
			want = append(want, e.ID)
		}
	}
	byID := map[string]bench.Experiment{}
	for _, e := range bench.Experiments {
		byID[e.ID] = e
	}
	for _, id := range want {
		e, ok := byID[strings.ToLower(id)]
		if !ok {
			fmt.Fprintf(os.Stderr, "gupbench: unknown experiment %q (have e1..e14, e16..e19, fig5, all; subcommands recovery, scenario)\n", id)
			os.Exit(2)
		}
		t, err := e.Run(opts)
		if err != nil {
			log.Fatalf("gupbench: %s: %v", e.ID, err)
		}
		fmt.Println(t.String())
	}
}

// runRecovery is the E18 crash-recovery benchmark with its own flag set:
// CI runs it with -detect-slack to gate the liveness-detection claim.
func runRecovery(args []string) {
	fs := flag.NewFlagSet("recovery", flag.ExitOnError)
	sizes := fs.String("sizes", "", "comma-separated directory sizes to measure (default 100,1000,5000)")
	leaseTTL := fs.Duration("lease-ttl", 0, "lease TTL for the detection phase (0 = default 150ms)")
	leaseGrace := fs.Duration("lease-grace", 0, "lease grace for the detection phase (0 = lease TTL)")
	jsonOut := fs.String("json", "", "write the machine-readable report here")
	slack := fs.Float64("detect-slack", 0, "allowed detection overrun past TTL+grace (1.0 = 2x the claim; 0 disables the gate)")
	_ = fs.Parse(args)

	opts := bench.RecoveryOptions{LeaseTTL: *leaseTTL, LeaseGrace: *leaseGrace}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 1 {
				log.Fatalf("gupbench: recovery: bad -sizes entry %q", s)
			}
			opts.Sizes = append(opts.Sizes, n)
		}
	}
	rep, err := bench.RunRecoveryReport(opts)
	if err != nil {
		log.Fatalf("gupbench: recovery: %v", err)
	}
	fmt.Println(rep.Table().String())
	if *jsonOut != "" {
		if err := bench.WriteRecoveryReport(rep, *jsonOut); err != nil {
			log.Fatalf("gupbench: recovery: write %s: %v", *jsonOut, err)
		}
	}
	if *slack > 0 {
		if err := bench.CheckRecovery(rep, *slack); err != nil {
			// Detection latency is timer-driven; a loaded CI machine can
			// overshoot once. A true miss fails the confirmation run too.
			fmt.Printf("recovery gate: %v — confirming with a second run\n", err)
			rep, err = bench.RunRecoveryReport(opts)
			if err != nil {
				log.Fatalf("gupbench: recovery: %v", err)
			}
			fmt.Println(rep.Table().String())
			if err := bench.CheckRecovery(rep, *slack); err != nil {
				log.Fatalf("gupbench: %v", err)
			}
		}
		fmt.Printf("recovery gate: ok (detection %.0fms within %.0f%% of the %dms claim)\n",
			rep.DetectMillis, (1+*slack)*100, rep.ClaimMillis)
	}
}

// runScenario drives a declarative scenario through the unified harness:
// committed scenarios by name, local files by path. Full runs gate on the
// scenario's own assertions; -check additionally gates against a
// committed baseline report (phase coverage + assertion count).
func runScenario(args []string) {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	fast := fs.Bool("fast", false, "shrink the run for smoke testing (assertions become informational)")
	seed := fs.Int64("seed", -1, "override the scenario's RNG seed (-1 = use the file's)")
	jsonOut := fs.String("json", "", "write the machine-readable report here")
	check := fs.String("check", "", "gate against this committed baseline report")
	list := fs.Bool("list", false, "list the committed scenarios and exit")
	verbose := fs.Bool("v", false, "narrate phases to stderr")
	// Accept "scenario <name> -flags" as well as "scenario -flags <name>".
	var target string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		target, args = args[0], args[1:]
	}
	_ = fs.Parse(args)

	if *list {
		for _, name := range scenario.List() {
			sc, err := scenario.Load(name)
			if err != nil {
				log.Fatalf("gupbench: scenario: %s: %v", name, err)
			}
			fmt.Printf("%-16s %s\n", name, sc.Description)
		}
		return
	}
	if target == "" && fs.NArg() == 1 {
		target = fs.Arg(0)
	}
	if target == "" {
		log.Fatalf("gupbench: scenario: want exactly one scenario name or file (try -list)")
	}
	var sc *scenario.Scenario
	if data, err := os.ReadFile(target); err == nil {
		sc, err = scenario.Decode(data)
		if err != nil {
			log.Fatalf("gupbench: scenario: %s: %v", target, err)
		}
	} else {
		var lerr error
		sc, lerr = scenario.Load(target)
		if lerr != nil {
			log.Fatalf("gupbench: scenario: %v", lerr)
		}
	}

	opts := scenario.RunOptions{Fast: *fast}
	if *seed >= 0 {
		opts.Seed = seed
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "scenario: "+format+"\n", args...)
		}
	}
	run := func() *scenario.Report {
		rep, err := scenario.Run(sc, opts)
		if err != nil {
			log.Fatalf("gupbench: scenario %s: %v", sc.Name, err)
		}
		return rep
	}
	rep := run()
	fmt.Println(rep.Table().String())
	for _, a := range rep.Assertions {
		mark := "ok  "
		if !a.Pass {
			mark = "FAIL"
		}
		fmt.Printf("  %s %s(%s): %s\n", mark, a.Kind, a.Target, a.Detail)
	}
	if *jsonOut != "" {
		if err := scenario.WriteReport(rep, *jsonOut); err != nil {
			log.Fatalf("gupbench: scenario: write %s: %v", *jsonOut, err)
		}
	}
	if *fast {
		// A smoke run proves the scenario builds, drives and tears down;
		// the shrunken load makes ratio assertions meaningless.
		return
	}
	gate := func(rep *scenario.Report) error {
		if *check != "" {
			baseline, err := scenario.ReadReport(*check)
			if err != nil {
				return fmt.Errorf("baseline %s: %w", *check, err)
			}
			return scenario.CheckRegression(baseline, rep)
		}
		return scenario.CheckRegression(nil, rep)
	}
	if err := gate(rep); err != nil {
		// Within-run ratios are scheduler-sensitive; a true regression
		// fails the confirmation run too.
		fmt.Printf("scenario gate: %v — confirming with a second run\n", err)
		rep = run()
		fmt.Println(rep.Table().String())
		if *jsonOut != "" {
			if werr := scenario.WriteReport(rep, *jsonOut); werr != nil {
				log.Fatalf("gupbench: scenario: write %s: %v", *jsonOut, werr)
			}
		}
		if err := gate(rep); err != nil {
			log.Fatalf("gupbench: %v", err)
		}
	}
	fmt.Printf("scenario gate: ok (%d assertions hold)\n", len(rep.Assertions))
}
