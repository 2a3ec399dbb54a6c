package experiments

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/citydata"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/hbase"
	"repro/internal/hdfs"
	"repro/internal/rdbms"
	"repro/internal/sqoop"
	"repro/internal/viz"
)

// E1EndToEnd boots the full four-layer infrastructure, pushes a sample of
// every data type through the Fig. 4 pipeline, and prints the per-layer
// component inventory (Fig. 1).
func E1EndToEnd(rng *rand.Rand) (*Result, error) {
	cfg := core.DefaultConfig()
	inf, err := core.New(cfg, rng)
	if err != nil {
		return nil, err
	}
	incidents, err := citydata.GenerateCrimes(citydata.DefaultCrimeConfig(cfg.Epoch), inf.Gang.Nodes(), rng)
	if err != nil {
		return nil, err
	}
	tweets, err := citydata.GenerateTweets(citydata.DefaultTweetConfig(cfg.Epoch), incidents, inf.Gang, rng)
	if err != nil {
		return nil, err
	}
	waze, err := citydata.GenerateWaze(500, inf.Cameras, cfg.Epoch, rng)
	if err != nil {
		return nil, err
	}
	calls, err := citydata.Generate911(300, cfg.Epoch, rng)
	if err != nil {
		return nil, err
	}
	tStats, err := inf.IngestTweets(tweets)
	if err != nil {
		return nil, err
	}
	wStats, err := inf.IngestWaze(waze)
	if err != nil {
		return nil, err
	}
	cStats, err := inf.IngestCrimes(incidents, "/warehouse/crimes/e1.json")
	if err != nil {
		return nil, err
	}
	nStats, err := inf.Ingest911(calls)
	if err != nil {
		return nil, err
	}

	// Legacy path: a relational system bulk-imported through Sqoop into
	// HDFS ("to gather data from legacy database systems, we utilize
	// Apache Sqoop").
	legacy := rdbms.NewDatabase()
	legacyTable, err := legacy.CreateTable("historic_crimes", []rdbms.Column{
		{Name: "id", Type: rdbms.IntCol},
		{Name: "offense", Type: rdbms.StringCol},
		{Name: "year", Type: rdbms.IntCol},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 500; i++ {
		if err := legacyTable.Insert(rdbms.Row{int64(i), string(citydata.CrimeTypes()[i%4]), int64(2010 + i%8)}); err != nil {
			return nil, err
		}
	}
	imp, err := sqoop.Import(legacy, inf.HDFS, sqoop.ImportConfig{
		Table: "historic_crimes", SplitBy: "id", Mappers: 4, TargetDir: "/warehouse/legacy",
	})
	if err != nil {
		return nil, err
	}

	layers := viz.NewTable("Fig. 1 layer inventory", "layer", "component")
	var listed []string
	for _, l := range inf.Inventory() {
		listed = append(listed, l.Layer)
		for _, c := range l.Components {
			layers.AddRow(l.Layer, c)
		}
	}
	if got := strings.Join(listed, " "); got != "data hardware software application" {
		return nil, fmt.Errorf("E1: the inventory lists layers [%s], want [data hardware software application]", got)
	}
	for _, f := range []struct {
		source string
		st     core.PipelineStats
	}{{"tweets", tStats}, {"waze", wStats}, {"911", nStats}} {
		if f.st.Stored != f.st.Collected || f.st.Dropped != 0 || f.st.DeadLettered != 0 {
			return nil, fmt.Errorf("E1: %s collected %d, stored %d, dropped %d, dead-lettered %d: want every record stored",
				f.source, f.st.Collected, f.st.Stored, f.st.Dropped, f.st.DeadLettered)
		}
	}
	if cStats.Collected != 300 || imp.Rows != 500 {
		return nil, fmt.Errorf("E1: %d crimes collected and %d legacy rows imported, want 300 and 500", cStats.Collected, imp.Rows)
	}
	flows := viz.NewTable("Fig. 4 data flows", "source", "collected", "streamed", "stored")
	flows.AddRow("tweets", tStats.Collected, tStats.Streamed, tStats.Stored)
	flows.AddRow("waze", wStats.Collected, wStats.Streamed, wStats.Stored)
	flows.AddRow("crimes", cStats.Collected, cStats.Streamed, cStats.Stored)
	flows.AddRow("911", nStats.Collected, nStats.Streamed, nStats.Stored)
	flows.AddRow("legacy RDBMS (sqoop)", imp.Rows, 0, len(imp.PartFiles))
	return &Result{
		ID: "E1", Title: "four-layer architecture boots end to end",
		Tables: []*viz.Table{layers, flows},
		Notes:  []string{"paper claim: integrated data/hardware/software/application layers — all four boot and exchange data"},
	}, nil
}

// E2CameraNetwork regenerates the Fig. 2 deployment: >200 DOTD cameras along
// interstate corridors covering the nine named cities.
func E2CameraNetwork(rng *rand.Rand) (*Result, error) {
	cams, err := citydata.CameraNetwork(220, rng)
	if err != nil {
		return nil, err
	}
	if len(cams) < 200 {
		return nil, fmt.Errorf("E2: %d cameras, want at least 200", len(cams))
	}
	byCity := make(map[string]int)
	byCorridor := make(map[string]int)
	for _, c := range cams {
		byCity[c.CityNear]++
		byCorridor[c.Corridor]++
	}
	for _, city := range citydata.Cities() {
		if byCity[city.Name] == 0 {
			return nil, fmt.Errorf("E2: no camera is nearest to %s, want each of the nine cities covered", city.Name)
		}
	}
	cities := viz.NewTable("cameras per nearest city", "city", "cameras")
	for _, city := range sortedKeys(byCity) {
		cities.AddRow(city, byCity[city])
	}
	corridors := viz.NewTable("cameras per corridor", "corridor", "cameras")
	for _, c := range sortedKeys(byCorridor) {
		corridors.AddRow(c, byCorridor[c])
	}
	// Coverage: how many cameras lie within 30 km of Baton Rouge (Fig. 2
	// zooms there).
	idx, err := geo.NewGridIndex[string](citydata.LouisianaBBox(), 64, 64)
	if err != nil {
		return nil, err
	}
	for _, c := range cams {
		if err := idx.Insert(c.Location, c.ID); err != nil {
			return nil, err
		}
	}
	br := geo.Point{Lat: 30.4515, Lon: -91.1871}
	near := idx.QueryRadius(br, 30)
	if len(near) == 0 {
		return nil, fmt.Errorf("E2: no camera within 30 km of Baton Rouge, want the Fig. 2 inset covered")
	}

	// ASCII rendition of the Fig. 2 map (north up).
	box := citydata.LouisianaBBox()
	xs := make([]float64, len(cams))
	ys := make([]float64, len(cams))
	for i, c := range cams {
		xs[i] = (c.Location.Lon - box.MinLon) / (box.MaxLon - box.MinLon)
		ys[i] = 1 - (c.Location.Lat-box.MinLat)/(box.MaxLat-box.MinLat)
	}
	mapText := viz.ScatterMap("Fig. 2 camera map (Louisiana, north up)", xs, ys, 64, 18, '●')
	return &Result{
		ID: "E2", Title: "DOTD camera network",
		Tables: []*viz.Table{cities, corridors},
		Notes: []string{
			fmt.Sprintf("paper claim: 'more than 200 cameras' — generated %d", len(cams)),
			fmt.Sprintf("%d cameras within 30 km of Baton Rouge (Fig. 2 inset)", len(near)),
			"\n" + mapText,
		},
	}, nil
}

// E4IngestPipeline runs the Fig. 4 pipeline under load: a month of tweets
// through collection → broker → docstore, then geo-time window reads from
// the NoSQL side. It prints counts; what the path costs in time is measured
// from outside the program (`go run ./benchmark`: feeds-batch,
// dashboard-mix).
func E4IngestPipeline(rng *rand.Rand) (*Result, error) {
	cfg := core.DefaultConfig()
	inf, err := core.New(cfg, rng)
	if err != nil {
		return nil, err
	}
	incidents, err := citydata.GenerateCrimes(citydata.DefaultCrimeConfig(cfg.Epoch), inf.Gang.Nodes(), rng)
	if err != nil {
		return nil, err
	}
	tcfg := citydata.DefaultTweetConfig(cfg.Epoch)
	tcfg.Count = 5000
	tweets, err := citydata.GenerateTweets(tcfg, incidents, inf.Gang, rng)
	if err != nil {
		return nil, err
	}
	stats, err := inf.IngestTweets(tweets)
	if err != nil {
		return nil, err
	}
	if _, err := inf.IngestCrimes(incidents, ""); err != nil {
		return nil, err
	}

	// Query side: geo-time windows (the web-server/visualization reads).
	br := geo.Point{Lat: 30.4515, Lon: -91.1871}
	const queries = 50
	found := 0
	for i := 0; i < queries; i++ {
		docs, err := inf.TweetsNear(br, 5+float64(i%10), cfg.Epoch, cfg.Epoch.Add(31*24*time.Hour))
		if err != nil {
			return nil, err
		}
		found += len(docs)
	}

	tb := viz.NewTable("Fig. 4 pipeline under load", "metric", "value")
	tb.AddRow("tweets stored", stats.Stored)
	tb.AddRow("crime cells written", len(incidents))
	tb.AddRow("geo-time queries", queries)
	tb.AddRow("rows matched (total)", found)
	return &Result{
		ID: "E4", Title: "collection → NoSQL → analysis pipeline",
		Tables: []*viz.Table{tb},
		Notes:  []string{"paper claim: raw input collected from multiple sources, stored in NoSQL, served to analysis/web tiers"},
	}, nil
}

// E13StorageLayer reproduces the storage-layer claims: HDFS availability
// under datanode failures at several replication factors, and the bytes an
// HBase random read touches vs an HDFS full-file scan.
func E13StorageLayer(rng *rand.Rand) (*Result, error) {
	avail := viz.NewTable("HDFS availability under failures", "replication", "failures", "readable", "under-replicated", "recovered")
	payload := make([]byte, 64*1024)
	rng.Read(payload)
	var readable [4][3]bool // [replication][failures]
	for _, rep := range []int{1, 2, 3} {
		for _, failures := range []int{0, 1, 2} {
			cluster := hdfs.NewCluster(hdfs.Config{BlockSize: 4096, Replication: rep}, rng)
			for i := 0; i < 5; i++ {
				if err := cluster.AddDataNode(fmt.Sprintf("dn-%d", i)); err != nil {
					return nil, err
				}
			}
			if err := cluster.Write("/data", payload); err != nil {
				return nil, err
			}
			for f := 0; f < failures; f++ {
				if err := cluster.FailDataNode(fmt.Sprintf("dn-%d", f)); err != nil {
					return nil, err
				}
			}
			_, readErr := cluster.Read("/data")
			under, _ := cluster.UnderReplicated()
			recovered := "n/a"
			if readErr == nil && under > 0 {
				if _, err := cluster.ReplicateMissing(); err == nil {
					u2, _ := cluster.UnderReplicated()
					recovered = strconv.FormatBool(u2 == 0)
				} else {
					recovered = "false"
				}
			}
			avail.AddRow(rep, failures, readErr == nil, under, recovered)
			readable[rep][failures] = readErr == nil
		}
	}
	if !readable[3][2] || readable[1][1] {
		return nil, fmt.Errorf("E13: RF 3 readable after 2 failures = %t, RF 1 readable after 1 = %t: want true, false",
			readable[3][2], readable[1][1])
	}

	// HBase random access vs HDFS batch access.
	cluster := hdfs.NewCluster(hdfs.Config{BlockSize: 16 * 1024, Replication: 2}, rng)
	for i := 0; i < 3; i++ {
		if err := cluster.AddDataNode(fmt.Sprintf("dn-%d", i)); err != nil {
			return nil, err
		}
	}
	table, err := hbase.NewTable("bench", []string{"f"}, hbase.Config{FlushThreshold: 512, CompactThreshold: 4}, cluster)
	if err != nil {
		return nil, err
	}
	const rows = 2000
	var batch []byte
	for i := 0; i < rows; i++ {
		key := fmt.Sprintf("row-%05d", i)
		val := []byte(strings.Repeat("x", 32))
		if err := table.Put(key, "f", "v", val); err != nil {
			return nil, err
		}
		batch = append(batch, val...)
	}
	if err := cluster.Write("/batch", batch); err != nil {
		return nil, err
	}

	const probes = 500
	var hbaseBytes, hdfsBytes int
	for i := 0; i < probes; i++ {
		key := fmt.Sprintf("row-%05d", rng.Intn(rows))
		v, err := table.Get(key, "f", "v")
		if err != nil {
			return nil, err
		}
		hbaseBytes += len(v)
	}
	for i := 0; i < probes; i++ {
		// HDFS has no random access: each point lookup re-reads the file.
		data, err := cluster.Read("/batch")
		if err != nil {
			return nil, err
		}
		off := rng.Intn(rows) * 32
		_ = data[off : off+32]
		hdfsBytes += len(data)
	}
	if hbaseBytes >= hdfsBytes {
		return nil, fmt.Errorf("E13: HBase read %d B over %d probes, HDFS %d B: want HBase fewer", hbaseBytes, probes, hdfsBytes)
	}
	access := viz.NewTable("random point reads: bytes read per probe, HBase vs HDFS",
		"store", "probes", "bytes per probe", "bytes (total)")
	access.AddRow("hbase (one cell)", probes, hbaseBytes/probes, hbaseBytes)
	access.AddRow("hdfs (whole file)", probes, hdfsBytes/probes, hdfsBytes)

	return &Result{
		ID: "E13", Title: "storage layer: replication & HBase vs HDFS",
		Tables: []*viz.Table{avail, access},
		Notes: []string{
			"paper claim: HDFS keeps data accessible though machines fail (replication)",
			fmt.Sprintf("paper claim: 'unlike HDFS... HBase supports efficient random read/write' — a point read takes one %d B cell from HBase and the whole %d B file from HDFS, %.0fx the bytes",
				hbaseBytes/probes, hdfsBytes/probes, float64(hdfsBytes)/float64(hbaseBytes)),
		},
	}, nil
}
