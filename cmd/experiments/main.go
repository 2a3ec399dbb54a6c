// Command experiments regenerates the paper's figures and quantitative
// claims (experiments E1..E26, see DESIGN.md §4). Without arguments it runs
// everything; pass experiment ids to run a subset.
//
//	go run ./cmd/experiments                         # all experiments
//	go run ./cmd/experiments E3 E5                   # just the fog sweep and detector
//	go run ./cmd/experiments -seed 7 E9
//
// Performance is measured by go run ./benchmark (see benchmark/README.md),
// not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "random seed shared by all experiments")
	list := fs.Bool("list", false, "list experiment ids and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		titles := experiments.Titles()
		for _, id := range experiments.IDs() {
			fmt.Printf("%-4s %s\n", id, titles[id])
		}
		return nil
	}
	ids := fs.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		res, err := experiments.Run(id, *seed)
		if err != nil {
			return err
		}
		fmt.Println(res.String())
	}
	return nil
}
