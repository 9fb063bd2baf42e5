package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// Replay controls: -sim.seed replays one failing seed, -sim.seeds sets the
// soak breadth. Every failure message embeds the exact replay command.
var (
	simSeed  = flag.Int64("sim.seed", 0, "replay a single simulation seed (0 = run the -sim.seeds sweep)")
	simSeeds = flag.Int("sim.seeds", 10, "number of seeds the soak sweep explores")
)

// scenarioForSeed distributes the seed space across the scenarios.
func scenarioForSeed(seed int64) Scenario {
	switch seed % 10 {
	case 0:
		return CounterStorm{}
	case 1:
		return CounterStorm{Transient: true}
	case 2:
		return MigrationShuffle{}
	case 3:
		return PermanentFaultStorm{}
	case 4:
		return TieredFaultStorm{}
	case 5:
		return NodeChurnStorm{}
	case 6:
		return NodeCrashStorm{}
	case 7:
		return NodeChurnStorm{Drift: true}
	case 8:
		return MigrationShuffle{Transient: true}
	default:
		return MeshRestoreStorm{}
	}
}

// runSeed executes one seed under a real-time watchdog (virtual time can
// only hang if the runtime deadlocks — that is itself a finding).
func runSeed(t *testing.T, seed int64) *Result {
	t.Helper()
	return runWatched(t, seed, scenarioForSeed(seed))
}

// runWatched runs sc with seed under runSeed's watchdog, so that a hang
// fails the test naming its seed instead of running into the package's
// timeout.
func runWatched(t *testing.T, seed int64, sc Scenario) *Result {
	t.Helper()
	ch := make(chan *Result, 1)
	go func() { ch <- Run(seed, sc) }()
	select {
	case r := <-ch:
		return r
	case <-time.After(2 * time.Minute):
		t.Fatalf("seed %d: simulation hung; replay with: go test ./internal/sim -run Soak -sim.seed %d", seed, seed)
		return nil
	}
}

// TestSoak sweeps seeds (or replays one with -sim.seed), failing with the
// replay command and writing the failing-seed list to sim-failed-seeds.txt
// for the nightly job's artifact upload.
func TestSoak(t *testing.T) {
	var seeds []int64
	if *simSeed != 0 {
		seeds = []int64{*simSeed}
	} else {
		for s := int64(1); s <= int64(*simSeeds); s++ {
			seeds = append(seeds, s)
		}
	}
	var failed []int64
	for _, seed := range seeds {
		res := runSeed(t, seed)
		if res.Failed() {
			failed = append(failed, seed)
			t.Errorf("seed %d (%s) failed; replay with: go test ./internal/sim -run Soak -sim.seed %d\n%s",
				seed, res.Scenario, seed, res.TraceBytes())
		}
	}
	if len(failed) > 0 {
		var b strings.Builder
		for _, s := range failed {
			fmt.Fprintf(&b, "%d\n", s)
		}
		if err := os.WriteFile("sim-failed-seeds.txt", []byte(b.String()), 0o644); err != nil {
			t.Logf("could not write failing-seed list: %v", err)
		}
	}
}

// TestSeedReplayByteEqual runs one seed per scenario twice and requires the
// exported traces to match byte for byte — the property that makes
// -sim.seed replays trustworthy.
func TestSeedReplayByteEqual(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		first := runSeed(t, seed)
		second := runSeed(t, seed)
		if !bytes.Equal(first.TraceBytes(), second.TraceBytes()) {
			t.Errorf("seed %d: replay diverged\n--- first ---\n%s--- second ---\n%s",
				seed, first.TraceBytes(), second.TraceBytes())
		}
		if first.Failed() {
			t.Errorf("seed %d failed:\n%s", seed, first.TraceBytes())
		}
	}
}

// TestPlanIsPureFunctionOfSeed pins the seed->plan mapping: expanding the
// same seed twice must yield identical plans (the replay guarantee's
// foundation).
func TestPlanIsPureFunctionOfSeed(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := expandPlan(seed, FaultTransient), expandPlan(seed, FaultTransient)
		if a != b {
			t.Fatalf("seed %d expanded to different plans:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestCleanDropsUnderFaultsMigrationAndChurn: the scenarios' read-only report
// handler makes evictions that write nothing happen in the middle of
// transient faults, migration, graceful churn, a node crash and a faulty
// tier — and every one of those runs ends with each clean resident object
// equal to its stored copy (the quiescent sweep, so a failure shows up as a
// violation). The count depends on the schedule; that there are any does not.
func TestCleanDropsUnderFaultsMigrationAndChurn(t *testing.T) {
	for _, seed := range []int64{11, 12, 14, 15, 26} {
		probe := &cleanDropProbe{Scenario: scenarioForSeed(seed)}
		res := runWatched(t, seed, probe)
		if res.Failed() {
			t.Errorf("seed %d (%s) failed:\n%s", seed, res.Scenario, res.TraceBytes())
		}
		if probe.drops == 0 {
			t.Errorf("seed %d (%s): no eviction was a clean drop", seed, res.Scenario)
		}
	}
}

// cleanDropProbe runs a scenario and then reads swap.clean_drops, summed over
// the nodes, from the cluster's metrics while Run still has the cluster open.
type cleanDropProbe struct {
	Scenario
	drops float64
}

func (p *cleanDropProbe) Run(env *Env) error {
	err := p.Scenario.Run(env)
	for k, v := range env.Cluster.Metrics() {
		if strings.HasSuffix(k, "swap.clean_drops") {
			p.drops += v
		}
	}
	return err
}

// TestChurnClassesMoveObjects: the churn seed classes still move objects —
// the leave/join classes (5, 7 with drift, 8's leave) through the cluster's
// rebalancing, the crash class (6) through a checkpoint restore — so a soak
// that passes has exercised the moves, not skipped them.
func TestChurnClassesMoveObjects(t *testing.T) {
	for _, seed := range []int64{5, 7, 8, 15, 17, 18} {
		probe := &rebalanceProbe{Scenario: scenarioForSeed(seed)}
		res := runWatched(t, seed, probe)
		if res.Failed() {
			t.Errorf("seed %d (%s) failed:\n%s", seed, res.Scenario, res.TraceBytes())
		}
		if probe.moved == 0 {
			t.Errorf("seed %d (%s): no object rebalanced", seed, res.Scenario)
		}
	}
	for _, seed := range []int64{6, 16} {
		res := runSeed(t, seed)
		if res.Failed() || res.Digest["restored"] == 0 {
			t.Errorf("seed %d (%s): restored %d objects, failed %t",
				seed, res.Scenario, res.Digest["restored"], res.Failed())
		}
	}
}

// rebalanceProbe runs a scenario and then reads cluster.rebalanced_objects
// while Run still has the cluster open.
type rebalanceProbe struct {
	Scenario
	moved float64
}

func (p *rebalanceProbe) Run(env *Env) error {
	err := p.Scenario.Run(env)
	p.moved = env.Cluster.Metrics()["cluster.rebalanced_objects"]
	return err
}
