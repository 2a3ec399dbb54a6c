// Socialnetwork: the §IV.B law-enforcement application. It regenerates the
// paper's gang network (67 groups, 982 members), demonstrates first/second-
// degree associate expansion, and runs the multi-modal persons-of-interest
// narrowing over geo-tagged tweets around a violent incident.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"repro/internal/citydata"
	"repro/internal/core"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "socialnetwork:", err)
		os.Exit(1)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(5))
	cfg := core.DefaultConfig()
	inf, err := core.New(cfg, rng)
	if err != nil {
		return err
	}

	first, second := inf.Gang.MeanAssociates()
	fmt.Printf("gang network: %d members in 67 groups; mean 1st-degree %.1f, mean 2nd-degree %.1f\n",
		inf.Gang.NumNodes(), first, second)
	fmt.Println("(paper: 982 members, 67 groups, ~14 first-degree, ~200 second-degree)")

	// One member's investigation field.
	member := inf.Gang.Nodes()[0]
	hops, err := inf.Gang.KDegreeAssociates(member, 2)
	if err != nil {
		return err
	}
	fmt.Printf("member %s: %d first-degree, %d second-degree associates\n",
		member, len(hops[0]), len(hops[1]))

	// Build the incident + tweet corpus and ingest.
	incidents, err := citydata.GenerateCrimes(citydata.DefaultCrimeConfig(cfg.Epoch), inf.Gang.Nodes(), rng)
	if err != nil {
		return err
	}
	tcfg := citydata.DefaultTweetConfig(cfg.Epoch)
	tcfg.Count = 6000
	tcfg.CrimeFraction = 0.25
	tweets, err := citydata.GenerateTweets(tcfg, incidents, inf.Gang, rng)
	if err != nil {
		return err
	}
	if _, err := inf.IngestTweets(tweets); err != nil {
		return err
	}
	fmt.Printf("ingested %d tweets for triangulation\n", len(tweets))

	// Narrow persons of interest for the first gang-linked violent incident.
	for _, inc := range incidents {
		funnel, err := inf.NarrowPersonsOfInterest(inc, core.DefaultNarrowConfig())
		if err != nil {
			return err
		}
		if len(funnel.Suspects) == 0 || len(funnel.PersonsOfInterest) == 0 {
			continue
		}
		fmt.Printf("\nincident %s (%s, district %d):\n", inc.ReportNumber, inc.Offense, inc.District)
		fmt.Printf("  member suspects:        %d\n", len(funnel.Suspects))
		fmt.Printf("  candidate field:        %d people\n", funnel.FieldSize)
		fmt.Printf("  geo-time tweets:        %d\n", funnel.GeoTimeTweets)
		fmt.Printf("  persons of interest:    %d (%.0fx reduction)\n",
			len(funnel.PersonsOfInterest), float64(funnel.FieldSize)/float64(len(funnel.PersonsOfInterest)))
		for i, p := range funnel.PersonsOfInterest {
			if i >= 5 {
				fmt.Println("    ...")
				break
			}
			fmt.Printf("    %s\n", p)
		}
		return nil
	}
	fmt.Println("no incident produced a narrowed set in this sample; rerun with another seed")
	return nil
}
