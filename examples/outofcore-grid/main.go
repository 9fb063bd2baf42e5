// Out-of-core uniform meshing: the headline use case of the paper.
//
// A uniform mesh whose total footprint exceeds the cluster's aggregate
// memory budget is generated block by block with OUPDR: each block is a
// mobile object; when memory runs out, idle blocks are serialized to a disk
// spool and reloaded on demand, overlapping the I/O with meshing of other
// blocks. The run prints the comp/comm/disk breakdown and the overlap metric
// of Tables IV-VI.
package main

import (
	"fmt"
	"log"

	"mrts/internal/cluster"
	"mrts/internal/meshgen"
	"mrts/internal/ooc"
)

func main() {
	const target = 120_000 // elements; ~2.6 MB of mesh fragments

	spool, cleanup, err := cluster.TempSpoolDir("ooc-grid-")
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()

	// Budget one third of the problem: most blocks must live on disk.
	cl, err := cluster.New(cluster.Config{
		Nodes:     2,
		MemBudget: int64(target) * 22 / 3 / 2,
		Policy:    ooc.LRU,
		SpoolDir:  spool,
		Factory:   meshgen.Factory,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	res, err := meshgen.RunOUPDR(cl, meshgen.UPDRConfig{
		Blocks:         8, // 64 mobile objects, over-decomposed (N >> P)
		TargetElements: target,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(res)
	fmt.Printf("interfaces conforming: %v\n", res.Conforming)
	fmt.Printf("memory: budget %d KB/node, peak %d KB, %d evictions, %d reloads\n",
		cl.RT(0).Mem().Budget()/1024, res.Mem.PeakMemUsed/1024,
		res.Mem.Evictions, res.Mem.Loads)
	fmt.Println("breakdown:", res.Report)

	if res.Mem.Evictions == 0 {
		log.Fatal("expected the problem to run out-of-core")
	}
	if !res.Conforming {
		log.Fatal("block interfaces must conform")
	}
}
