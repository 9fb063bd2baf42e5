// Command meshnode is one worker process of a distributed OUPDR run. It
// joins a TCP cluster (dialing the seed, or listening as the seed when -seed
// is empty), predicts the global block placement — block idx is dealt to
// node idx mod -nodes, and each block's pointer names its owner, so the
// runtime's default lazy routing reaches it in one hop — creates or restores
// its share of the blocks, and then executes phase barriers driven over
// stdin by cmd/meshctl:
//
//	phase K     post phase K, run it to global termination, checkpoint -> "done K"
//	export DIR  frame every local block into DIR as meshstore chunk + manifest
//	            (all nodes must export together) -> "exported <blocks> <bytes>"
//	quit        leave the cluster and exit
//
// The stdout protocol starts with "ready <id> <addr>" once membership is
// complete. Diagnostics go to stderr. A relaunched worker passes -restore
// together with -id <old id> to rejoin under its old identity and resume from
// the checkpoint the previous incarnation wrote at its last phase barrier.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mrts/internal/comm"
	"mrts/internal/core"
	"mrts/internal/meshgen"
	"mrts/internal/meshstore"
	"mrts/internal/obs"
	"mrts/internal/ooc"
	"mrts/internal/sched"
	"mrts/internal/storage"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:0", "address to listen on")
		seed     = flag.String("seed", "", "seed node address (empty: this process is the seed, node 0)")
		id       = flag.Int("id", -1, "node ID to claim on rejoin (-1: let the seed assign one)")
		nodes    = flag.Int("nodes", 3, "cluster size")
		blocks   = flag.Int("blocks", 6, "decomposition grid dimension")
		elements = flag.Int("elements", 50000, "target total element count")
		quality  = flag.Float64("quality", 0, "radius-edge quality bound (0 = sqrt 2)")
		phases   = flag.Int("phases", 3, "barrier-separated kick-off phases")
		budget   = flag.Int64("budget", 0, "memory budget in bytes (0 = elements*30)")
		spool    = flag.String("spool", "", "swap spool directory (empty: in-memory)")
		ckpt     = flag.String("ckpt", "", "checkpoint directory (empty: checkpoints kept in memory)")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON file on quit")
		restore  = flag.Bool("restore", false, "restore from the checkpoint in -ckpt instead of creating blocks")
		compress = flag.Bool("compress", true, "compress exported chunk frames (byte-plane coding, raw when it does not shrink them)")
		workers  = flag.Int("workers", 2, "task pool workers")
		hb       = flag.Duration("heartbeat", 0, "heartbeat interval (0 = default)")
		expire   = flag.Duration("expire", 0, "seed-side member expiry (0 = default)")
	)
	flag.Parse()
	if *restore && (*id < 0 || *ckpt == "") {
		fatalf("-restore requires -id and -ckpt")
	}

	// A rejoining worker races the seed's processing of its predecessor's
	// leave (or heartbeat expiry): the seed refuses to reissue the ID while
	// it still believes the old incarnation is up, so retry the join.
	var tn *comm.TCPNode
	var err error
	for attempt := 0; attempt < 200; attempt++ {
		tn, err = comm.StartTCPNode(comm.TCPNodeConfig{
			Listen:         *listen,
			Seed:           *seed,
			WantID:         comm.NodeID(*id),
			HeartbeatEvery: *hb,
			ExpireAfter:    *expire,
		})
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		fatalf("join: %v", err)
	}
	defer tn.Close()

	// The tracer is the node's time account whether or not -trace asks for
	// the events as well (a nil sink hands out a tracer that keeps totals).
	var sink *obs.TraceSink
	if *traceOut != "" {
		sink = obs.NewTraceSink(obs.DefaultCapacity)
	}
	tracer := sink.NewTracer(fmt.Sprintf("node%d", tn.Node()), nil)
	tn.SetTracer(tracer)

	store, err := openStore(*spool, "spool")
	if err != nil {
		fatalf("spool: %v", err)
	}
	ckStore, err := openStore(*ckpt, "ckpt")
	if err != nil {
		fatalf("ckpt: %v", err)
	}

	b := *budget
	if b <= 0 {
		b = int64(*elements) * 30
	}
	pool := sched.NewWorkStealing(*workers)
	pool.SetTracer(tracer)
	rt := core.NewRuntime(core.Config{
		Endpoint: tn,
		Pool:     pool,
		Factory:  meshgen.Factory,
		Mem:      ooc.Config{Budget: b},
		Store:    store,
		Tracer:   tracer,
		NumNodes: *nodes,
	})
	defer rt.Close()

	d, err := meshgen.NewDist(rt, meshgen.DistConfig{
		Blocks:         *blocks,
		TargetElements: *elements,
		QualityBound:   *quality,
		Nodes:          *nodes,
		Node:           int(tn.Node()),
		Phases:         *phases,
	})
	if err != nil {
		fatalf("dist: %v", err)
	}

	// Announce the listen address before waiting for full membership: the
	// launcher needs the seed's address to start the other workers at all.
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "ready %d %s\n", tn.Node(), tn.Addr())
	out.Flush()

	if err := tn.WaitMembers(*nodes, 30*time.Second); err != nil {
		fatalf("membership: %v", err)
	}
	if *restore {
		if err := rt.Restore(ckStore, "ck"); err != nil {
			fatalf("restore: %v", err)
		}
		logf(tn, "restored %d blocks from checkpoint", rt.NumLocalObjects())
	} else {
		if err := d.CreateBlocks(); err != nil {
			fatalf("create: %v", err)
		}
		logf(tn, "created %d blocks", rt.NumLocalObjects())
	}

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		var k int
		line := sc.Text()
		switch {
		case line == "quit":
			if m := d.Mismatches(); m != 0 {
				fatalf("%d interface mismatches", m)
			}
			logf(tn, "%v", rt.Report())
			writeTrace(*traceOut, sink)
			return
		case strings.HasPrefix(line, "export "):
			// Every node of the run must receive the export command: the
			// export barrier is global, like a phase. The writer truncates any
			// chunk a killed incarnation left behind, so a relaunched worker
			// re-exports cleanly over its predecessor's partial file.
			w, err := meshstore.NewWriter(meshstore.WriterConfig{
				Dir:      strings.TrimSpace(strings.TrimPrefix(line, "export ")),
				Writer:   int(tn.Node()),
				Meta:     d.StoreMeta(),
				Compress: *compress,
				Tracer:   tracer,
			})
			if err != nil {
				fatalf("export: %v", err)
			}
			if err := d.Export(w); err != nil {
				fatalf("export: %v", err)
			}
			if _, err := w.Finalize(); err != nil {
				fatalf("export: %v", err)
			}
			logf(tn, "exported %d blocks (%d bytes)", w.Blocks(), w.Bytes())
			fmt.Fprintf(out, "exported %d %d\n", w.Blocks(), w.Bytes())
			out.Flush()
		default:
			if _, err := fmt.Sscanf(line, "phase %d", &k); err != nil {
				fatalf("bad command %q", line)
			}
			d.PostPhase(k)
			d.WaitPhase()
			if err := d.Err(); err != nil {
				fatalf("phase %d: %v", k, err)
			}
			// Checkpoint at every barrier so a later incarnation can resume
			// from whichever phase the process died after.
			if err := rt.Checkpoint(ckStore, "ck"); err != nil {
				fatalf("checkpoint: %v", err)
			}
			logf(tn, "phase %d done: %d elements local", k, d.Elements())
			fmt.Fprintf(out, "done %d\n", k)
			out.Flush()
		}
	}
	if err := sc.Err(); err != nil {
		fatalf("stdin: %v", err)
	}
}

// openStore returns a file store rooted at dir, or an in-memory store when
// dir is empty.
func openStore(dir, what string) (storage.Store, error) {
	if dir == "" {
		return storage.NewMem(), nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	return storage.NewFile(dir)
}

func writeTrace(path string, sink *obs.TraceSink) {
	if sink == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("trace: %v", err)
	}
	if err := obs.WriteChromeTrace(f, sink.Tracers()...); err != nil {
		f.Close()
		fatalf("trace: %v", err)
	}
	if err := f.Close(); err != nil {
		fatalf("trace: %v", err)
	}
}

func logf(tn *comm.TCPNode, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "meshnode %d: "+format+"\n",
		append([]any{tn.Node()}, args...)...)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "meshnode: "+format+"\n", args...)
	os.Exit(1)
}
