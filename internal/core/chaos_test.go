package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/citydata"
	"repro/internal/telemetry"
)

// TestPipelineSurvivesDataNodeFailure is the availability story end to end:
// ingest crimes (HBase storefiles + HDFS archive live on the datanodes),
// kill a datanode, verify reads still work, re-replicate, kill another,
// and verify again — the §II.C.2 claim at the infrastructure level.
func TestPipelineSurvivesDataNodeFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataNodes = 5
	cfg.Cameras = 30
	cfg.Gang.Members = 100
	cfg.Gang.Groups = 10
	inf, err := New(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	ccfg := citydata.DefaultCrimeConfig(cfg.Epoch)
	ccfg.Count = 150
	incidents, err := citydata.GenerateCrimes(ccfg, inf.Gang.Nodes(), rng)
	if err != nil {
		t.Fatal(err)
	}
	const archive = "/warehouse/crimes/chaos.json"
	if _, err := inf.IngestCrimes(incidents, archive); err != nil {
		t.Fatal(err)
	}
	// Force the memstore to HDFS so failures actually threaten data.
	if err := inf.CrimeTab.Flush(); err != nil {
		t.Fatal(err)
	}

	countAll := func() int {
		total := 0
		for d := 1; d <= ccfg.Districts; d++ {
			rows, err := inf.CrimesInDistrict(d)
			if err != nil {
				t.Fatalf("district scan after failure: %v", err)
			}
			total += len(rows)
		}
		return total
	}
	before := countAll()
	if before != 150 {
		t.Fatalf("baseline incidents = %d", before)
	}

	for round, node := range []string{"dn-0", "dn-1"} {
		if err := inf.HDFS.FailDataNode(node); err != nil {
			t.Fatal(err)
		}
		// Reads must survive each single failure thanks to replication 3.
		if got := countAll(); got != 150 {
			t.Fatalf("round %d: incidents = %d after failing %s", round, got, node)
		}
		if _, err := inf.HDFS.Read(archive); err != nil {
			t.Fatalf("round %d: archive unreadable: %v", round, err)
		}
		if _, err := inf.HDFS.ReplicateMissing(); err != nil {
			t.Fatalf("round %d: re-replication: %v", round, err)
		}
		under, lost := inf.HDFS.UnderReplicated()
		if under != 0 || lost != 0 {
			t.Fatalf("round %d: under=%d lost=%d after recovery", round, under, lost)
		}
	}

	// New writes keep working on the shrunken cluster.
	more, err := citydata.GenerateCrimes(citydata.CrimeConfig{
		Count: 20, Districts: ccfg.Districts, GangFraction: 0,
		Start: cfg.Epoch.AddDate(0, 1, 0), Span: ccfg.Span,
	}, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inf.IngestCrimes(more, ""); err != nil {
		t.Fatalf("ingest after failures: %v", err)
	}
	if got := countAll(); got != 170 {
		t.Fatalf("post-failure ingest total = %d", got)
	}
}

// TestHBaseCrashRecoveryThroughInfrastructure exercises WAL replay at the
// application level: unflushed annotations survive a region-server crash.
func TestHBaseCrashRecoveryThroughInfrastructure(t *testing.T) {
	inf := bootSmall(t)
	for i := 0; i < 25; i++ {
		row := fmt.Sprintf("cam-x|%05d", i)
		if err := inf.VideoTab.Put(row, famDetection, "0", []byte("{}")); err != nil {
			t.Fatal(err)
		}
	}
	replayed, err := inf.VideoTab.CrashAndRecover()
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 25 {
		t.Fatalf("replayed = %d", replayed)
	}
	rows, err := inf.VideoTab.ScanPrefix("cam-x|")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 25 {
		t.Fatalf("rows after recovery = %d", len(rows))
	}
}

// TestHealerWiredThroughInfrastructure: a repair driven through inf.Healer
// is what cityinfra_hdfs_replicas_created_total and the healer event hook
// observe.
func TestHealerWiredThroughInfrastructure(t *testing.T) {
	inf := bootSmall(t)
	if err := inf.HDFS.Write("/warehouse/healer/blob", make([]byte, 4*inf.Config().BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := inf.HDFS.FailDataNode("dn-0"); err != nil {
		t.Fatal(err)
	}
	if under, _ := inf.HDFS.UnderReplicated(); under == 0 {
		t.Fatal("failing dn-0 left nothing under-replicated")
	}
	created, err := inf.Healer.Tick()
	if err != nil || created == 0 {
		t.Fatalf("healer tick = %d, %v", created, err)
	}
	if under, lost := inf.HDFS.UnderReplicated(); under != 0 || lost != 0 {
		t.Fatalf("under=%d lost=%d after healer tick", under, lost)
	}

	var metric float64
	for _, p := range inf.Telemetry.Snapshot() {
		if p.Name == "cityinfra_hdfs_replicas_created_total" {
			metric = p.Value
		}
	}
	if metric != float64(created) {
		t.Fatalf("cityinfra_hdfs_replicas_created_total = %g, want %d", metric, created)
	}
	healerEvents := 0
	for _, ev := range inf.Events.Events(0) {
		if ev.Component == telemetry.CompHealer {
			healerEvents++
		}
	}
	if healerEvents != 1 {
		t.Fatalf("%d healer events, want 1", healerEvents)
	}
}
