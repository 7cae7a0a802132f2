// Visualize: compress a benchmark and render its layout (the paper's
// Fig. 20) as ASCII height slices on stdout, optionally exporting a
// Wavefront OBJ model and a CSV cell dump.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/viz"
	"repro/tqec"
)

func main() {
	bench := flag.String("bench", "4gt10-v1_81", "benchmark to lay out")
	seed := flag.Int64("seed", 3, "placement seed")
	obj := flag.String("obj", "", "write a Wavefront OBJ model to this path")
	csv := flag.String("csv", "", "write a cell dump CSV to this path")
	svg := flag.String("svg", "", "write an SVG slice rendering to this path")
	slices := flag.Bool("slices", true, "print ASCII height slices")
	flag.Parse()

	opts := tqec.DefaultOptions()
	opts.Place.Seed = *seed
	res, err := tqec.CompileBenchmark(context.Background(), *bench, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %s — M module, B distillation box, * dual-defect net\n\n", *bench, res.Dims)

	scene := viz.BuildScene(res.Placement, res.Routing)
	if *slices {
		if err := scene.WriteSlices(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if *obj != "" {
		f, err := os.Create(*obj)
		if err != nil {
			log.Fatal(err)
		}
		if err := viz.WriteOBJ(f, res.Placement, res.Routing); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *obj)
	}
	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			log.Fatal(err)
		}
		if err := scene.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *csv)
	}
	if *svg != "" {
		f, err := os.Create(*svg)
		if err != nil {
			log.Fatal(err)
		}
		if err := scene.WriteSVG(f, 4); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *svg)
	}
}
