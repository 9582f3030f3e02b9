// Command datagen generates, inspects, saves and reloads the synthetic
// dataset analogs (Table 3):
//
//	datagen -profile small                      # print statistics
//	datagen -profile bench -dataset papers -out papers.gnnds
//	datagen -in papers.gnnds                    # inspect a saved file
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/cliutil"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/graphio"
)

func main() {
	var (
		profile = flag.String("profile", "small", cliutil.ProfileUsage)
		dataset = flag.String("dataset", "", "one dataset (default: all)")
		out     = flag.String("out", "", "save the selected dataset to this file")
		analyze = flag.Bool("analyze", false, "run graph analytics (triangles, components, k-core)")
		in      = flag.String("in", "", "load and describe a saved dataset file")
	)
	flag.Parse()

	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		d, err := graphio.ReadDataset(f)
		if err != nil {
			fatal(err)
		}
		describe(d)
		if *analyze {
			analyzeGraph(d)
		}
		return
	}

	prof, err := cliutil.ParseProfile(*profile)
	if err != nil {
		fatal(err)
	}

	names := datasets.Names()
	if *dataset != "" {
		names = []string{*dataset}
	}
	for _, name := range names {
		d, err := datasets.ByName(name, prof)
		if err != nil {
			fatal(err)
		}
		describe(d)
		if *analyze {
			analyzeGraph(d)
		}
		if *out != "" {
			if len(names) > 1 {
				fatal(fmt.Errorf("-out requires -dataset to select one dataset"))
			}
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			if err := graphio.WriteDataset(f, d); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			info, _ := os.Stat(*out)
			fmt.Printf("  saved to %s (%d bytes)\n", *out, info.Size())
		}
	}
}

func analyzeGraph(d *datasets.Dataset) {
	tri := graph.TriangleCount(d.Graph)
	_, comps := graph.ConnectedComponents(d.Graph)
	core := graph.KCoreDecomposition(d.Graph)
	maxCore := 0
	for _, c := range core {
		if c > maxCore {
			maxCore = c
		}
	}
	fmt.Printf("  triangles=%d components=%d max-core=%d\n", tri, comps, maxCore)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}

func describe(d *datasets.Dataset) {
	degs := d.Graph.Degrees()
	sort.Ints(degs)
	pct := func(q float64) int { return degs[int(q*float64(len(degs)-1))] }
	fmt.Printf("%s: %d vertices, %d edges (avg degree %.1f)\n",
		d.Name, d.Graph.NumVertices(), d.Graph.NumEdges(), d.Graph.AvgDegree())
	fmt.Printf("  degree p50=%d p90=%d p99=%d max=%d\n", pct(0.5), pct(0.9), pct(0.99), degs[len(degs)-1])
	fmt.Printf("  features=%d classes=%d train/val/test=%d/%d/%d\n",
		d.Features.Cols, d.NumClasses, len(d.Train), len(d.Val), len(d.Test))
	fmt.Printf("  batch size=%d batches=%d fanouts=%v ladies width=%d\n",
		d.BatchSize, d.NumBatches(), d.Fanouts, d.LayerWidth)
}
