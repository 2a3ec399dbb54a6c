// Command cityinfra boots the full cyberinfrastructure, streams a month of
// synthetic city data through the Fig. 4 pipeline, and prints status
// reports for every layer. It is the operational entry point a deployment
// would script against.
//
//	go run ./cmd/cityinfra                 # boot + ingest + report
//	go run ./cmd/cityinfra -tweets 10000   # heavier ingest
//	go run ./cmd/cityinfra -chaos 0.1      # inject 10% faults on every seam
//	go run ./cmd/cityinfra -telemetry      # print the metrics registry after ingest
//	go run ./cmd/cityinfra -watch          # live dashboard: sparklines, SLO burn, alerts
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/citydata"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/profile"
	"repro/internal/viz"
	"repro/internal/web"

	"math/rand"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cityinfra:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cityinfra", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "random seed")
	tweetCount := fs.Int("tweets", 3000, "tweets to ingest")
	wazeCount := fs.Int("waze", 800, "waze reports to ingest")
	callCount := fs.Int("calls", 400, "911 calls to ingest")
	serve := fs.String("serve", "", "after ingesting, serve the dashboard API on this address (e.g. :8080)")
	chaos := fs.Float64("chaos", 0, "per-call fault probability injected on every storage/stream seam (0 = off)")
	showTelemetry := fs.Bool("telemetry", false, "after ingesting, print the telemetry registry (what GET /metrics exposes)")
	watch := fs.Bool("watch", false, "after ingesting, run the live monitoring dashboard (sparklines, SLO burn, alerts)")
	watchFrames := fs.Int("watch-frames", 0, "stop -watch after this many frames (0 = run until killed)")
	watchInterval := fs.Duration("watch-interval", time.Second, "wall-clock delay between -watch frames (0 = no repaint delay, for scripted runs)")
	cpuProfile := fs.String("cpuprofile", "", "write a runtime/pprof CPU profile of the ingest phase to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	cfg := core.DefaultConfig()

	fmt.Println("booting cyberinfrastructure ...")
	inf, err := core.New(cfg, rng)
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	if *chaos > 0 {
		fmt.Printf("chaos mode: injecting %.0f%% faults on broker, HDFS, HBase, and docstore seams\n", *chaos*100)
		inf.EnableChaos(faults.NewInjector(faults.Config{
			Seed: *seed, ErrorRate: *chaos, BurstLen: 2,
			LatencyRate: 0.05, LatencySpikeMs: 20,
		}))
	}
	inv := viz.NewTable("layer inventory (Fig. 1)", "layer", "component")
	for _, l := range inf.Inventory() {
		for _, c := range l.Components {
			inv.AddRow(l.Layer, c)
		}
	}
	fmt.Println(inv)

	// Data layer: one month of city data.
	incidents, err := citydata.GenerateCrimes(citydata.DefaultCrimeConfig(cfg.Epoch), inf.Gang.Nodes(), rng)
	if err != nil {
		return err
	}
	tcfg := citydata.DefaultTweetConfig(cfg.Epoch)
	tcfg.Count = *tweetCount
	tweets, err := citydata.GenerateTweets(tcfg, incidents, inf.Gang, rng)
	if err != nil {
		return err
	}
	waze, err := citydata.GenerateWaze(*wazeCount, inf.Cameras, cfg.Epoch, rng)
	if err != nil {
		return err
	}
	calls, err := citydata.Generate911(*callCount, cfg.Epoch, rng)
	if err != nil {
		return err
	}

	flows := viz.NewTable("ingestion (Fig. 4)", "source", "collected", "stored", "dead-lettered", "dropped", "retries")
	ingest := func() error {
		ts, err := inf.IngestTweets(tweets)
		if err != nil {
			return err
		}
		flows.AddRow("tweets", ts.Collected, ts.Stored, ts.DeadLettered, ts.Dropped, ts.Retries)
		ws, err := inf.IngestWaze(waze)
		if err != nil {
			return err
		}
		flows.AddRow("waze", ws.Collected, ws.Stored, ws.DeadLettered, ws.Dropped, ws.Retries)
		cs, err := inf.IngestCrimes(incidents, "/warehouse/crimes/"+cfg.Epoch.Format("2006-01")+".json")
		if err != nil {
			return err
		}
		flows.AddRow("crimes", cs.Collected, cs.Stored, cs.DeadLettered, cs.Dropped, cs.Retries)
		ns, err := inf.Ingest911(calls)
		if err != nil {
			return err
		}
		flows.AddRow("911 calls", ns.Collected, ns.Stored, ns.DeadLettered, ns.Dropped, ns.Retries)
		return nil
	}
	if *cpuProfile != "" {
		// Function-level escape hatch below the region attribution: the whole
		// ingest phase under the pprof sampler.
		var ingestErr error
		if err := profile.CaptureCPU(*cpuProfile, func() { ingestErr = ingest() }); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		if ingestErr != nil {
			return ingestErr
		}
		fmt.Printf("wrote CPU profile of the ingest phase to %s\n", *cpuProfile)
	} else if err := ingest(); err != nil {
		return err
	}
	fmt.Println(flows)

	if *chaos > 0 {
		rt := viz.NewTable("resilience under chaos", "metric", "value")
		ps := inf.Retry.Stats()
		bs := inf.Breaker.Stats()
		tot := inf.Injector.Totals()
		rt.AddRow("injected errors", tot.Errors)
		rt.AddRow("injected latency spikes", tot.LatencySpikes)
		rt.AddRow("injected cpu burns", fmt.Sprintf("%d (%.0f ms)", tot.Burns, tot.BurnMs))
		rt.AddRow("retry attempts", ps.Attempts)
		rt.AddRow("retries", ps.Retries)
		rt.AddRow("breaker opens / half-opens / closes", fmt.Sprintf("%d / %d / %d", bs.Opened, bs.HalfOpened, bs.Closed))
		rt.AddRow("breaker short-circuits", ps.ShortCircuits)
		rt.AddRow("simulated backoff", inf.Clock.Slept().Round(time.Millisecond))
		fmt.Println(rt)
	}

	// Sample queries the web/visualization tier would issue.
	br := geo.Point{Lat: 30.4515, Lon: -91.1871}
	docs, err := inf.TweetsNear(br, 10, cfg.Epoch, cfg.Epoch.Add(31*24*time.Hour))
	if err != nil {
		return err
	}
	q := viz.NewTable("sample analytics queries", "query", "result")
	q.AddRow("tweets within 10 km of Baton Rouge", len(docs))
	for d := 1; d <= 3; d++ {
		rows, err := inf.CrimesInDistrict(d)
		if err != nil {
			return err
		}
		q.AddRow(fmt.Sprintf("crimes in district %d", d), len(rows))
	}
	hdfsStatus := inf.HDFS.Status()
	q.AddRow("HDFS files / blocks", fmt.Sprintf("%d / %d", hdfsStatus.Files, hdfsStatus.Blocks))
	fmt.Println(q)

	if *showTelemetry {
		tt := viz.NewTable("telemetry registry (GET /metrics)", "metric", "type", "value", "p50 ms", "p95 ms", "p99 ms", "p99 exemplar")
		for _, p := range inf.Telemetry.Snapshot() {
			if p.Type == "histogram" {
				ex := p.ExemplarTrace
				if ex == "" {
					ex = "-"
				}
				tt.AddRow(p.Name, p.Type, p.Count,
					fmt.Sprintf("%.2f", p.P50*1e3),
					fmt.Sprintf("%.2f", p.P95*1e3),
					fmt.Sprintf("%.2f", p.P99*1e3),
					ex)
				continue
			}
			tt.AddRow(p.Name, p.Type, p.Value, "-", "-", "-", "-")
		}
		fmt.Println(tt)

		st := viz.NewTable("SLO burn rates (GET /api/slo)", "objective", "target", "windowed good/total", "error rate", "burn rate")
		for _, rep := range inf.SLOs.Reports() {
			st.AddRow(rep.Name, rep.Objective,
				fmt.Sprintf("%.0f/%.0f", rep.Good, rep.Total), rep.ErrorRate, rep.BurnRate)
		}
		fmt.Println(st)
	}

	if *watch {
		fmt.Println("entering watch mode — each frame ingests a trickle of tweets and camera frames and runs one monitor tick")
		trickle := tcfg
		trickle.Count = 100
		return watchLoop(inf, os.Stdout, *watchFrames, *watchInterval, func(frame int) error {
			batch, err := citydata.GenerateTweets(trickle, incidents, inf.Gang, rng)
			if err != nil {
				return err
			}
			if _, err := inf.IngestTweets(batch); err != nil {
				return err
			}
			_, err = inf.IngestFrames(core.SyntheticFrames(inf.Cameras, frame, 1, rng), "")
			return err
		})
	}

	if *serve != "" {
		// Seed the TSDB with a few scrapes of the post-ingest registry so the
		// windowed query endpoints (/api/query, /api/series) have enough
		// samples for a full 15 s rate window before the first request. One
		// frame sweep per scrape keeps /api/cameras and the per-camera vec
		// families populated too.
		for i := 0; i < 4; i++ {
			if _, err := inf.IngestFrames(core.SyntheticFrames(inf.Cameras, i, 1, rng), ""); err != nil {
				return err
			}
			inf.MonitorTick()
		}
		fmt.Printf("serving dashboard API on %s (GET /api/health, /api/inventory, /api/tweets/near, ...)\n", *serve)
		// Blocks until the process is killed — the operational mode.
		return http.ListenAndServe(*serve, web.NewServer(inf))
	}
	return nil
}
