// Command meshgen generates a mesh with any of the six method builds and
// prints run statistics, optionally writing the per-subdomain meshes'
// element counts.
//
// Usage:
//
//	meshgen -method updr   -elements 100000 -pes 4
//	meshgen -method onupdr -elements 200000 -pes 4 -budget 2000000
//	meshgen -method opcdm  -elements 500000 -pes 8 -policy lfu -spool /tmp/spool
//	meshgen -method oupdr  -elements 200000 -pes 2 -quality
//
// -quality prints the run's quality report (meshgen.Quality: counts, the
// minimum-angle histogram against the bound, the worst radius-edge ratio,
// size fidelity, Validate/CheckDelaunay per piece, conformity and MeshHash)
// as a table and as one JSON line. OPCDM, whose mesh depends on the
// schedule, has no report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mrts/internal/cluster"
	"mrts/internal/delaunay"
	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/meshgen"
	"mrts/internal/obs"
	"mrts/internal/ooc"
	"mrts/internal/render"
	"mrts/internal/workload"
)

func main() {
	var (
		method   = flag.String("method", "updr", "updr|nupdr|pcdm|oupdr|onupdr|opcdm")
		elements = flag.Int("elements", 50000, "target element count")
		pes      = flag.Int("pes", 4, "processing elements (in-core) / nodes (OOC)")
		budget   = flag.Int64("budget", 0, "per-node memory budget in bytes (OOC methods; 0 = generous)")
		policy   = flag.String("policy", "lru", "eviction policy: lru|lfu|mru|mu|lu")
		spool    = flag.String("spool", "", "spool directory for OOC storage (default: temp dir)")
		beta     = flag.Float64("beta", 0, "radius-edge quality bound (0 = sqrt 2)")
		svgPath  = flag.String("svg", "", "also render an equivalent sequential mesh to this SVG file")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON file (OOC methods; open in Perfetto)")
		quality  = flag.Bool("quality", false, "print the run's quality report (not opcdm)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q (the radius-edge bound is -beta)", flag.Args())
	}

	m := strings.ToLower(*method)
	if *quality && m == "opcdm" {
		fatalf("-quality: %s has no quality report", strings.ToUpper(m))
	}
	ooM := strings.HasPrefix(m, "o") && m != "updr"
	var res meshgen.Result
	var err error
	var sink *obs.TraceSink
	if *traceOut != "" {
		if !ooM {
			fatalf("-trace requires an OOC method (the tracer lives in the runtime cluster)")
		}
		sink = obs.NewTraceSink(obs.DefaultCapacity)
	}

	if !ooM {
		switch m {
		case "updr":
			res, err = meshgen.RunUPDR(meshgen.UPDRConfig{
				Blocks: 6, TargetElements: *elements, PEs: *pes, QualityBound: *beta, Quality: *quality,
			})
		case "nupdr":
			res, err = meshgen.RunNUPDR(meshgen.NUPDRConfig{
				TargetElements: *elements, PEs: *pes, QualityBound: *beta, Quality: *quality,
			})
		case "pcdm":
			res, err = meshgen.RunPCDM(meshgen.PCDMConfig{
				Grid: 6, TargetElements: *elements, PEs: *pes, QualityBound: *beta, Quality: *quality,
			})
		default:
			fatalf("unknown method %q", *method)
		}
	} else {
		dir := *spool
		if dir == "" {
			var cleanup func()
			dir, cleanup, err = cluster.TempSpoolDir("meshgen-")
			if err != nil {
				fatalf("spool: %v", err)
			}
			defer cleanup()
		}
		b := *budget
		if b <= 0 {
			b = int64(*elements) * 30
		}
		cl, cerr := cluster.New(cluster.Config{
			Nodes:     *pes,
			MemBudget: b,
			Policy:    ooc.Policy(*policy),
			SpoolDir:  dir,
			Factory:   meshgen.Factory,
			Trace:     sink,
		})
		if cerr != nil {
			fatalf("cluster: %v", cerr)
		}
		defer cl.Close()
		switch m {
		case "oupdr":
			res, err = meshgen.RunOUPDR(cl, meshgen.UPDRConfig{
				Blocks: 6, TargetElements: *elements, QualityBound: *beta, Quality: *quality,
			})
		case "onupdr":
			res, err = meshgen.RunONUPDR(cl, meshgen.NUPDRConfig{
				TargetElements: *elements, QualityBound: *beta, Quality: *quality,
			})
		case "opcdm":
			res, err = meshgen.RunOPCDM(cl, meshgen.PCDMConfig{
				Grid: 6, TargetElements: *elements, QualityBound: *beta,
			})
		default:
			fatalf("unknown method %q", *method)
		}
	}
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Println(res)
	fmt.Printf("conforming interfaces: %v\n", res.Conforming)
	if *quality {
		if err := printQuality(res.Quality); err != nil {
			fatalf("quality: %v", err)
		}
	}
	if *svgPath != "" {
		if err := writeSVG(*svgPath, m, *elements, *beta); err != nil {
			fatalf("svg: %v", err)
		}
		fmt.Printf("wrote %s\n", *svgPath)
	}
	if ooM {
		fmt.Println(res.Report)
		fmt.Printf("evictions %d  loads %d  peak mem %d KB\n",
			res.Mem.Evictions, res.Mem.Loads, res.Mem.PeakMemUsed/1024)
	}
	if sink != nil {
		f, err := os.Create(*traceOut)
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
		fmt.Printf("wrote trace to %s (open at https://ui.perfetto.dev)\n", *traceOut)
	}
}

// writeSVG meshes the method's domain sequentially with equivalent sizing
// and renders it (the parallel runners do not retain their meshes).
func writeSVG(path, method string, elements int, quality float64) error {
	var mm *mesh.Mesh
	var err error
	switch method {
	case "nupdr", "onupdr":
		mm, _, err = delaunay.BuildCDT(workload.UnitSquare())
		if err != nil {
			return err
		}
		size := workload.GradedRadial(geom.Pt(0.5, 0.5),
			workload.UniformSizeFor(elements, 1)/2, 0.08)
		_, err = delaunay.Refine(mm, delaunay.Options{QualityBound: quality, Size: size})
	default:
		mm, _, err = delaunay.BuildCDT(workload.UnitSquare())
		if err != nil {
			return err
		}
		_, err = delaunay.Refine(mm, delaunay.Options{
			QualityBound: quality,
			MaxArea:      workload.UniformAreaFor(elements, 1),
		})
	}
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return render.WriteSVG(f, mm, render.Options{FillByQuality: true, Constrained: true})
}

// printQuality prints q as a table, then as one JSON line.
func printQuality(q *meshgen.Quality) error {
	fmt.Print(q.Table())
	line, err := json.Marshal(q)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "meshgen: "+format+"\n", args...)
	os.Exit(1)
}
