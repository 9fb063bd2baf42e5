// Command meshctl launches and drives a multi-process OUPDR cluster, and
// operates on the chunked mesh stores such runs export.
//
// Launched bare, it spawns one cmd/meshnode process per node (the first is
// the membership seed), steps them through the phase barriers over their
// stdin/stdout protocol — optionally SIGKILLing one worker after a barrier
// (-kill, -kill-after) and relaunching it from its checkpoint under the same
// node ID — and then has every node stream its blocks into one chunk per
// node under -store (default: store under -dir; -kill-export SIGKILLs a
// worker right after it starts exporting, and the relaunched incarnation
// truncates the partial chunk and re-exports). It merges the per-node
// manifests into MANIFEST.json, verifies the store offline, and renders the
// block report (-out, -baseline) from the manifest index: a block reported
// twice, or one missing, leaves the merge partial and fails the run.
//
//	meshctl -meshnode bin/meshnode -nodes 1 -out baseline.txt
//	meshctl -meshnode bin/meshnode -nodes 3 -kill 2 -kill-after 0 -baseline baseline.txt
//	meshctl -meshnode bin/meshnode -nodes 3 -store dir -kill-export 2 -baseline baseline.txt
//
// Every meshnode computes the same placement from the grid and the node
// count alone — block idx on node idx mod -nodes, its pointer naming that
// node — so the launcher passes no placement or routing setting, and a
// relaunched worker owns the blocks its predecessor did.
//
// Subcommands operate on a store offline:
//
//	meshctl verify  -store dir [-deep]
//	meshctl restore -store dir -nodes 2 [-baseline baseline.txt]
//
// restore proves rank independence: it rebuilds the mesh from a store onto
// -nodes in-process runtimes — however many nodes wrote it — and compares
// the restored mesh's canonical hash against the manifest's.
//
// Per-node stderr goes to node<id>.log under -dir.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mrts/internal/bufpool"
	"mrts/internal/cluster"
	"mrts/internal/meshgen"
	"mrts/internal/meshstore"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "verify":
			verifyMain(os.Args[2:])
			return
		case "restore":
			restoreMain(os.Args[2:])
			return
		}
	}
	launchMain(os.Args[1:])
}

// clusterOpts are the flags that shape the launched cluster.
type clusterOpts struct {
	meshnode string
	nodes    int
	blocks   int
	elements int
	quality  float64
	phases   int
	budget   int64
	dir      string
	trace    bool
	timeout  time.Duration
}

func registerClusterOpts(fs *flag.FlagSet) *clusterOpts {
	o := &clusterOpts{}
	fs.StringVar(&o.meshnode, "meshnode", "meshnode", "path to the meshnode binary")
	fs.IntVar(&o.nodes, "nodes", 3, "cluster size")
	fs.IntVar(&o.blocks, "blocks", 6, "decomposition grid dimension")
	fs.IntVar(&o.elements, "elements", 50000, "target total element count")
	fs.Float64Var(&o.quality, "quality", 0, "radius-edge quality bound")
	fs.IntVar(&o.phases, "phases", 3, "barrier-separated kick-off phases")
	fs.Int64Var(&o.budget, "budget", 0, "per-node memory budget in bytes")
	fs.StringVar(&o.dir, "dir", "", "working directory for logs/spools/checkpoints (default: temp)")
	fs.BoolVar(&o.trace, "trace", false, "have each node write a Chrome trace under -dir")
	fs.DurationVar(&o.timeout, "timeout", 2*time.Minute, "per-step timeout")
	return o
}

// start creates the working directory and launches the full cluster: the
// seed first, then the workers against its address. The returned cleanup
// removes a temporary working directory.
func (o *clusterOpts) start(extra ...string) (*control, func()) {
	work := o.dir
	cleanup := func() {}
	if work == "" {
		var err error
		work, err = os.MkdirTemp("", "meshctl-")
		if err != nil {
			fatalf("workdir: %v", err)
		}
		cleanup = func() { os.RemoveAll(work) }
	} else if err := os.MkdirAll(work, 0o755); err != nil {
		fatalf("workdir: %v", err)
	}

	ctl := &control{
		meshnode: o.meshnode, work: work, nodes: o.nodes, timeout: o.timeout,
		common: append([]string{
			"-nodes", fmt.Sprint(o.nodes),
			"-blocks", fmt.Sprint(o.blocks),
			"-elements", fmt.Sprint(o.elements),
			"-quality", fmt.Sprint(o.quality),
			"-phases", fmt.Sprint(o.phases),
			"-budget", fmt.Sprint(o.budget),
			"-heartbeat", "100ms",
			"-expire", "1s",
		}, extra...),
		trace: o.trace,
		procs: make([]*proc, o.nodes),
	}

	seed, err := ctl.launch(0, false)
	if err != nil {
		ctl.killAll()
		cleanup()
		fatalf("launch seed: %v", err)
	}
	ctl.procs[0] = seed
	ctl.seedAddr = seed.addr
	for i := 1; i < o.nodes; i++ {
		p, err := ctl.launch(i, false)
		if err != nil {
			ctl.killAll()
			cleanup()
			fatalf("launch node %d: %v", i, err)
		}
		ctl.procs[i] = p
	}
	return ctl, cleanup
}

// runPhases drives every phase barrier, optionally killing and relaunching
// worker `kill` after barrier killAfter.
func (c *control) runPhases(phases, kill, killAfter int) {
	for k := 0; k < phases; k++ {
		if err := c.phase(k); err != nil {
			fatalf("phase %d: %v", k, err)
		}
		logf("phase %d complete on all %d nodes", k, c.nodes)
		if kill > 0 && k == killAfter {
			c.relaunch(kill, fmt.Sprintf("after phase %d", k))
		}
	}
}

// relaunch SIGKILLs worker i and launches its next incarnation, which
// rejoins under the same ID and restores from its last checkpoint.
func (c *control) relaunch(i int, when string) {
	victim := c.procs[i]
	logf("killing node %d (pid %d) %s", i, victim.cmd.Process.Pid, when)
	victim.cmd.Process.Kill()
	victim.cmd.Wait()
	p, err := c.launch(i, true)
	if err != nil {
		fatalf("relaunch node %d: %v", i, err)
	}
	c.procs[i] = p
	logf("node %d rejoined at %s and restored from checkpoint", i, p.addr)
}

// launchMain runs the cluster through its phases, exports the mesh into a
// chunked store, one chunk per node, then merges, verifies offline and
// reports from the manifest.
func launchMain(args []string) {
	fs := flag.NewFlagSet("meshctl", flag.ExitOnError)
	o := registerClusterOpts(fs)
	var (
		kill       = fs.Int("kill", -1, "worker node to SIGKILL and relaunch mid-run (-1: none; 0, the seed, is not killable)")
		killAfter  = fs.Int("kill-after", 0, "phase barrier after which to kill")
		store      = fs.String("store", "", "mesh store directory the run exports into (default: store under -dir, emptied first)")
		killExport = fs.Int("kill-export", -1, "worker to SIGKILL right after it starts exporting, then relaunch and re-export (-1: none)")
		compress   = fs.Bool("compress", true, "compress chunk frames (byte-plane coding, raw when it does not shrink them)")
		out        = fs.String("out", "", "write the manifest-derived block report to this file")
		baseline   = fs.String("baseline", "", "compare the block report against this file; exit 1 on any difference")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		fatalf("unexpected arguments %q (subcommands: verify, restore)", fs.Args())
	}
	if *kill == 0 || *kill >= o.nodes {
		fatalf("-kill must name a worker node in [1,%d)", o.nodes)
	}
	if *kill > 0 && (*killAfter < 0 || *killAfter >= o.phases-1) {
		fatalf("-kill-after must leave a phase to run after the rejoin (have %d phases)", o.phases)
	}
	if *killExport == 0 || *killExport >= o.nodes {
		fatalf("-kill-export must name a worker node in [1,%d)", o.nodes)
	}

	ctl, cleanup := o.start("-compress=" + fmt.Sprint(*compress))
	defer cleanup()
	defer ctl.killAll()
	if *store == "" {
		// The default store is the launcher's own: a previous run's chunks
		// there would merge into this one.
		*store = filepath.Join(ctl.work, "store")
		if err := os.RemoveAll(*store); err != nil {
			fatalf("store: %v", err)
		}
	}
	// Workers inherit this process's working directory; make the store path
	// absolute so launcher and workers agree on it regardless.
	abs, err := filepath.Abs(*store)
	if err != nil {
		fatalf("store: %v", err)
	}
	*store = abs

	ctl.runPhases(o.phases, *kill, *killAfter)

	if *killExport > 0 {
		// Crash drill: tell the victim to export and SIGKILL it immediately —
		// depending on the race it dies before, during, or after appending
		// frames, possibly mid-frame. The export barrier is still pending on
		// the other nodes, so nothing else is disturbed; the relaunched
		// incarnation restores from its phase checkpoint and its fresh writer
		// truncates whatever the dead one left in the chunk.
		victim := ctl.procs[*killExport]
		fmt.Fprintf(victim.stdin, "export %s\n", *store)
		ctl.relaunch(*killExport, "mid-export")
	}

	for _, p := range ctl.procs {
		if _, err := fmt.Fprintf(p.stdin, "export %s\n", *store); err != nil {
			fatalf("export node %d: %v", p.id, err)
		}
	}
	for _, p := range ctl.procs {
		line, err := ctl.expect(p, "exported ")
		if err != nil {
			fatalf("export node %d: %v", p.id, err)
		}
		logf("node %d: %s", p.id, line)
	}
	if err := ctl.quitAll(); err != nil {
		fatalf("shutdown: %v", err)
	}

	man, err := meshstore.MergeManifests(*store)
	if err != nil {
		fatalf("merge: %v", err)
	}
	if man.Partial {
		fatalf("merged store does not cover the %dx%d grid exactly once", o.blocks, o.blocks)
	}
	rep, err := meshstore.Verify(*store)
	if err != nil {
		fatalf("verify: %v", err)
	}
	if !rep.OK() {
		for _, p := range rep.Problems {
			fmt.Fprintf(os.Stderr, "meshctl: verify: %s\n", p)
		}
		fatalf("store failed verification with %d problems", len(rep.Problems))
	}
	logf("exported %d blocks (%d bytes on disk) to %s", rep.Blocks, rep.Bytes, *store)
	logf("MeshHash %s", man.MeshHash)
	finishReport(manifestReport(man), *out, *baseline)
}

// verifyMain checks a store offline: chunk walk, payload digests, index
// cross-check, combined hash. -deep additionally decodes every block payload
// and recomputes its canonical mesh digest — no cluster involved.
func verifyMain(args []string) {
	fs := flag.NewFlagSet("meshctl verify", flag.ExitOnError)
	var (
		store = fs.String("store", "", "mesh store directory (required)")
		deep  = fs.Bool("deep", false, "decode every block payload and recompute its canonical mesh digest")
	)
	fs.Parse(args)
	if *store == "" {
		fatalf("verify: -store is required")
	}
	rep, err := meshstore.Verify(*store)
	if err != nil {
		fatalf("verify: %v", err)
	}
	problems := rep.Problems
	if *deep {
		problems = append(problems, deepVerify(*store)...)
	}
	logf("store %s: format %d, %d blocks, %d bytes, partial=%v",
		*store, rep.Format, rep.Blocks, rep.Bytes, rep.Partial)
	if rep.MeshHash != "" {
		logf("MeshHash %s", rep.MeshHash)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "meshctl: verify: %s\n", p)
		}
		fatalf("store failed verification with %d problems", len(problems))
	}
	logf("store verified clean")
}

// deepVerify re-derives every block's canonical digest from its decoded
// payload and compares it against the manifest index. Blocks decode on
// meshstore.Ordered's workers; problems come back in record order.
func deepVerify(dir string) []string {
	st, err := meshstore.Open(dir)
	if err != nil {
		return []string{err.Error()}
	}
	defer st.Close()
	nb := st.Manifest().Meta.Blocks
	if nb <= 0 {
		return []string{"deep verify needs a merged manifest (meta unknown)"}
	}
	recs := st.Manifest().Records()
	var problems []string
	// A block's problem is a value, not an error: every block is checked.
	_ = meshstore.Ordered(len(recs), func(k int) (string, error) {
		rec := recs[k]
		payload, _, err := st.PayloadBuf(rec.Key)
		if err != nil {
			return fmt.Sprintf("block %s: %v", rec.Key, err), nil
		}
		dump, err := meshgen.DecodeExportedBlock(payload, nb)
		bufpool.Put(payload)
		if err != nil {
			return fmt.Sprintf("block %s: decode: %v", rec.Key, err), nil
		}
		if dump.I != rec.I || dump.J != rec.J || dump.Elements != rec.Elements || dump.Hash != rec.Hash {
			return fmt.Sprintf("block %s: payload decodes to %v, index says %v",
				rec.Key, dump, meshgen.BlockDump{I: rec.I, J: rec.J, Elements: rec.Elements, Hash: rec.Hash}), nil
		}
		return "", nil
	}, func(_ int, problem string) error {
		if problem != "" {
			problems = append(problems, problem)
		}
		return nil
	})
	return problems
}

// restoreMain rebuilds the mesh from a store onto -nodes in-process
// runtimes — the store may have been written by any number of nodes — and
// compares the restored mesh's canonical hash against the manifest's.
func restoreMain(args []string) {
	fs := flag.NewFlagSet("meshctl restore", flag.ExitOnError)
	var (
		store    = fs.String("store", "", "mesh store directory (required)")
		nodes    = fs.Int("nodes", 2, "number of nodes to restore onto")
		workers  = fs.Int("workers", 2, "task pool workers per node")
		budget   = fs.Int64("budget", 0, "per-node memory budget in bytes (0 = elements*30)")
		out      = fs.String("out", "", "write the restored block report to this file")
		baseline = fs.String("baseline", "", "compare the restored report against this file; exit 1 on any difference")
	)
	fs.Parse(args)
	if *store == "" {
		fatalf("restore: -store is required")
	}
	if *nodes <= 0 {
		fatalf("restore: -nodes must be positive")
	}
	st, err := meshstore.Open(*store)
	if err != nil {
		fatalf("restore: %v", err)
	}
	defer st.Close()
	b := *budget
	if b <= 0 {
		b = int64(st.Manifest().Meta.TargetElements) * 30
	}
	cl, err := cluster.New(cluster.Config{
		Nodes:          *nodes,
		WorkersPerNode: *workers,
		MemBudget:      b,
		Factory:        meshgen.Factory,
	})
	if err != nil {
		fatalf("restore: %v", err)
	}
	defer cl.Close()
	ds, err := meshgen.RestoreOnto(cl.Runtimes(), st)
	if err != nil {
		fatalf("restore %s: %v", *store, err)
	}
	logf("restored %d blocks onto %d nodes from %s", st.Manifest().Blocks(), *nodes, *store)

	all, err := meshgen.DumpAll(ds)
	if err != nil {
		fatalf("restore: %v", err)
	}
	if got := meshgen.MeshHashOf(all); got != st.MeshHash() {
		fatalf("restored MeshHash %s != store %s", got, st.MeshHash())
	}
	logf("restored MeshHash matches store: %s", st.MeshHash())

	lines := make([]string, len(all))
	for i, bd := range all {
		lines[i] = bd.String()
	}
	sort.Strings(lines)
	finishReport(lines, *out, *baseline)
}

// manifestReport renders the canonical block report from the manifest index
// alone: block payloads never pass through the launcher.
func manifestReport(man *meshstore.Manifest) []string {
	recs := man.Records()
	lines := make([]string, len(recs))
	for i, r := range recs {
		lines[i] = meshgen.BlockDump{I: r.I, J: r.J, Elements: r.Elements, Hash: r.Hash}.String()
	}
	sort.Strings(lines)
	return lines
}

// finishReport writes the block report and/or compares it to a baseline.
func finishReport(lines []string, out, baseline string) {
	report := strings.Join(lines, "\n") + "\n"
	if out != "" {
		if err := os.WriteFile(out, []byte(report), 0o644); err != nil {
			fatalf("out: %v", err)
		}
		logf("wrote %d blocks to %s", len(lines), out)
	}
	if baseline != "" {
		want, err := os.ReadFile(baseline)
		if err != nil {
			fatalf("baseline: %v", err)
		}
		if string(want) != report {
			diff(strings.Split(strings.TrimRight(string(want), "\n"), "\n"), lines)
			fatalf("mesh differs from baseline %s", baseline)
		}
		logf("mesh identical to baseline %s (%d blocks)", baseline, len(lines))
	}
}

// proc is one running meshnode process.
type proc struct {
	id    int
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string
	addr  string
}

type control struct {
	meshnode string
	work     string
	nodes    int
	timeout  time.Duration
	common   []string
	trace    bool
	seedAddr string
	procs    []*proc
}

// launch starts node i: the seed listens, workers dial the seed; a relaunch
// reclaims the node's old ID and restores from its checkpoint directory.
func (c *control) launch(i int, relaunch bool) (*proc, error) {
	ndir := filepath.Join(c.work, fmt.Sprintf("node%d", i))
	args := append([]string{
		"-listen", "127.0.0.1:0",
		"-spool", filepath.Join(ndir, "spool"),
		"-ckpt", filepath.Join(ndir, "ckpt"),
	}, c.common...)
	if i > 0 {
		args = append(args, "-seed", c.seedAddr)
	}
	if relaunch {
		args = append(args, "-restore", "-id", fmt.Sprint(i))
	}
	if c.trace {
		args = append(args, "-trace", filepath.Join(c.work, fmt.Sprintf("node%d.trace.json", i)))
	}

	if err := os.MkdirAll(ndir, 0o755); err != nil {
		return nil, err
	}
	logName := filepath.Join(c.work, fmt.Sprintf("node%d.log", i))
	logFile, err := os.OpenFile(logName, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}

	cmd := exec.Command(c.meshnode, args...)
	cmd.Stderr = logFile
	stdin, err := cmd.StdinPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	logFile.Close() // the child holds its own descriptor now

	p := &proc{id: i, cmd: cmd, stdin: stdin, lines: make(chan string, 256)}
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			p.lines <- sc.Text()
		}
		close(p.lines)
	}()

	ready, err := c.expect(p, "ready ")
	if err != nil {
		return nil, fmt.Errorf("node %d not ready: %w (see %s)", i, err, logName)
	}
	var id int
	if _, err := fmt.Sscanf(ready, "ready %d %s", &id, &p.addr); err != nil {
		return nil, fmt.Errorf("node %d: bad ready line %q", i, ready)
	}
	if id != i {
		return nil, fmt.Errorf("launched node %d but the seed assigned ID %d", i, id)
	}
	return p, nil
}

// expect reads lines from p until one starts with prefix.
func (c *control) expect(p *proc, prefix string) (string, error) {
	deadline := time.After(c.timeout)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				return "", fmt.Errorf("process exited (wanted %q)", prefix)
			}
			if strings.HasPrefix(line, prefix) {
				return line, nil
			}
			return "", fmt.Errorf("unexpected output %q (wanted %q)", line, prefix)
		case <-deadline:
			return "", fmt.Errorf("timeout waiting for %q", prefix)
		}
	}
}

// phase drives one global barrier: every node posts its share, and the
// barrier completes only when the distributed termination protocol fires on
// all of them.
func (c *control) phase(k int) error {
	for _, p := range c.procs {
		if _, err := fmt.Fprintf(p.stdin, "phase %d\n", k); err != nil {
			return fmt.Errorf("node %d: %w", p.id, err)
		}
	}
	for _, p := range c.procs {
		if _, err := c.expect(p, fmt.Sprintf("done %d", k)); err != nil {
			return fmt.Errorf("node %d: %w", p.id, err)
		}
	}
	return nil
}

func (c *control) quitAll() error {
	for _, p := range c.procs {
		fmt.Fprintln(p.stdin, "quit")
	}
	var firstErr error
	for _, p := range c.procs {
		if err := p.cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("node %d: %w", p.id, err)
		}
		p.cmd = nil
	}
	return firstErr
}

func (c *control) killAll() {
	for _, p := range c.procs {
		if p != nil && p.cmd != nil && p.cmd.Process != nil {
			p.cmd.Process.Kill()
		}
	}
}

// diff prints the first few lines that differ between the baseline and the
// cluster's block report.
func diff(want, got []string) {
	n := 0
	for i := 0; i < len(want) || i < len(got); i++ {
		w, g := "", ""
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			fmt.Fprintf(os.Stderr, "meshctl: line %d: baseline %q, cluster %q\n", i+1, w, g)
			if n++; n >= 5 {
				fmt.Fprintln(os.Stderr, "meshctl: ...")
				return
			}
		}
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "meshctl: "+format+"\n", args...)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "meshctl: "+format+"\n", args...)
	os.Exit(1)
}
