package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// refWindow is the reference the fleet's ring of cumulative readings is
// checked against: one delta per counter per tick in a fleetWindowTicks-deep
// ring, summed on demand, with the burn gauge written only on signal.
type refWindow struct {
	prevIngested, prevDelivered, prevUndelivered uint64

	dIngested    [fleetWindowTicks]uint64
	dDelivered   [fleetWindowTicks]uint64
	dUndelivered [fleetWindowTicks]uint64

	lastBurn float64
	gauge    float64
}

func (w *refWindow) tick(slot int, ing, del, und uint64) {
	w.dIngested[slot] = ing - w.prevIngested
	w.dDelivered[slot] = del - w.prevDelivered
	w.dUndelivered[slot] = und - w.prevUndelivered
	w.prevIngested, w.prevDelivered, w.prevUndelivered = ing, del, und
	var bad, attempted uint64
	for i := 0; i < fleetWindowTicks; i++ {
		bad += w.dUndelivered[i]
		attempted += w.dDelivered[i] + w.dUndelivered[i]
	}
	b := 0.0
	if attempted != 0 && bad != 0 {
		b = (float64(bad) / float64(attempted)) / (1 - fleetSLOTarget)
	}
	if b > 0 || w.lastBurn > 0 {
		w.gauge = b
	}
	w.lastBurn = b
}

func (w *refWindow) rate(interval time.Duration, ticks int) float64 {
	n := fleetWindowTicks
	if ticks < n {
		n = ticks
	}
	if n <= 0 {
		return 0
	}
	var d uint64
	for i := 0; i < fleetWindowTicks; i++ {
		d += w.dIngested[i]
	}
	return float64(d) / (time.Duration(n) * interval).Seconds()
}

// TestFleetWindowMatchesReference drives seeded random histories — bursts,
// idle stretches, lossy stretches, cameras first seen mid-run and between
// ticks — through the fleet, and after every tick holds each Report row's
// rate and burn, and each camera's burn gauge, to the per-tick-delta
// arithmetic above.
func TestFleetWindowMatchesReference(t *testing.T) {
	const cameras, ticks = 14, 12 * fleetWindowTicks
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inf := &Infrastructure{Telemetry: telemetry.NewRegistry()}
		inf.wireFleet()
		fl := inf.Fleet

		type cam struct {
			id            string
			firstTick     int
			lossy, seen   bool
			ing, del, und uint64
		}
		cams := make([]*cam, cameras)
		for i := range cams {
			cams[i] = &cam{id: fmt.Sprintf("cam-%02d", rng.Intn(100)*100+i), firstTick: rng.Intn(ticks * 2 / 3)}
		}
		ref := map[string]*refWindow{}
		refTicks, slot, burningRows := 0, 0, 0

		check := func(when string) {
			t.Helper()
			var want []*cam
			for _, c := range cams {
				if c.seen {
					want = append(want, c)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i].id < want[j].id })
			rep := fl.Report()
			exposed := map[string]float64{}
			for _, p := range inf.Telemetry.Snapshot() {
				exposed[p.Name] = p.Value
			}
			if len(rep) != len(want) {
				t.Fatalf("seed %d %s: %d rows, want %d", seed, when, len(rep), len(want))
			}
			for i, row := range rep {
				c := want[i]
				if row.Camera != c.id {
					t.Fatalf("seed %d %s: row %d is %s, want %s (id order)", seed, when, i, row.Camera, c.id)
				}
				var wantRate, wantBurn, wantGauge float64
				if w := ref[c.id]; w != nil {
					wantRate, wantBurn, wantGauge = w.rate(fl.interval, refTicks), w.lastBurn, w.gauge
				}
				if row.RatePerSec != wantRate || row.Burn != wantBurn {
					t.Fatalf("seed %d %s: %s rate %v burn %v, want %v %v",
						seed, when, c.id, row.RatePerSec, row.Burn, wantRate, wantBurn)
				}
				// Every camera fits the top-K budget, so its burn gauge is
				// a series of its own and holds the last value written.
				burn := telemetry.FormatName("cityinfra_camera_slo_burn", telemetry.LabelSet{{Key: "camera", Value: c.id}})
				if got, ok := exposed[burn]; !ok || got != wantGauge {
					t.Fatalf("seed %d %s: %s burn gauge %v, want %v", seed, when, c.id, got, wantGauge)
				}
				if row.Burn > 0 {
					burningRows++
				}
				if row.Ingested != c.ing || row.Delivered != c.del || row.Undelivered != c.und {
					t.Fatalf("seed %d %s: %s counters %+v, want %d/%d/%d", seed, when, c.id, row, c.ing, c.del, c.und)
				}
			}
		}

		for tick := 1; tick <= ticks; tick++ {
			// A third of the run is quiet fleet-wide, so burning cameras decay
			// through the first-clean-tick gauge write back to silence.
			quiet := tick > ticks/3 && tick <= ticks/3+2*fleetWindowTicks
			for _, c := range cams {
				if tick < c.firstTick || rng.Intn(4) == 0 {
					continue
				}
				if rng.Intn(6) == 0 {
					c.lossy = !c.lossy
				}
				h := fl.camera(c.id)
				c.seen = true
				frames, lost := rng.Intn(9), 0
				if c.lossy && !quiet {
					lost = rng.Intn(frames + 1)
				}
				h.ingested.Add(frames)
				h.delivered.Add(frames - lost)
				h.undelivered.Add(lost)
				c.ing, c.del, c.und = c.ing+uint64(frames), c.del+uint64(frames-lost), c.und+uint64(lost)
			}
			// Reads between ticks see live counters but the last closed window.
			check(fmt.Sprintf("before tick %d", tick))

			fl.Tick()
			refTicks++
			slot = (slot + 1) % fleetWindowTicks
			for _, c := range cams {
				if !c.seen {
					continue
				}
				if ref[c.id] == nil {
					ref[c.id] = &refWindow{}
				}
				ref[c.id].tick(slot, c.ing, c.del, c.und)
			}
			check(fmt.Sprintf("after tick %d", tick))
		}

		if burningRows == 0 {
			t.Fatalf("seed %d: no row ever burned — the generator lost its lossy stretches", seed)
		}
	}
}

// TestFleetSummaryCoversEveryFamily pins the summary's family set: one entry
// per per-camera vec family, each bounded at top-K + rollup.
func TestFleetSummaryCoversEveryFamily(t *testing.T) {
	inf := &Infrastructure{Telemetry: telemetry.NewRegistry()}
	inf.wireFleet()
	for i := 0; i < 40; i++ {
		inf.Fleet.camera(fmt.Sprintf("cam-%02d", i)).ingested.Inc()
	}
	sum := inf.Fleet.Summary()
	want := []string{
		"cityinfra_camera_frames_ingested_total", "cityinfra_camera_frames_shed_total",
		"cityinfra_camera_frames_delivered_total", "cityinfra_camera_frames_undelivered_total",
		"cityinfra_camera_frames_offloaded_total", "cityinfra_camera_e2e_seconds",
		"cityinfra_camera_slo_burn",
	}
	if sum.Cameras != 40 || sum.MaxSeries != telemetry.DefaultVecMaxSeries || len(sum.SeriesPerFamily) != len(want) {
		t.Fatalf("summary = %+v", sum)
	}
	for _, name := range want {
		if n, ok := sum.SeriesPerFamily[name]; !ok || n != telemetry.DefaultVecMaxSeries+1 {
			t.Fatalf("family %s: %d series (present %v), want %d", name, n, ok, telemetry.DefaultVecMaxSeries+1)
		}
	}
}

// TestFleetConcurrentFirstSight races first-sight inserts from several frame
// writers against Tick and Report: every reader must see an id-ordered
// table, and nothing a writer counted may be lost. -race gates the locking.
func TestFleetConcurrentFirstSight(t *testing.T) {
	inf := &Infrastructure{Telemetry: telemetry.NewRegistry()}
	inf.wireFleet()
	fl := inf.Fleet
	const writers, perWriter, frames = 4, 60, 5

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for f := 0; f < frames; f++ {
				for i := 0; i < perWriter; i++ {
					// Descending ids, interleaved across writers: every first
					// sight inserts ahead of records already in the list.
					fl.camera(fmt.Sprintf("cam-%04d", (perWriter-i)*writers+w)).ingested.Inc()
				}
			}
		}(w)
	}
	writersDone := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			fl.Tick()
			rep := fl.Report()
			if !sort.SliceIsSorted(rep, func(i, j int) bool { return rep[i].Camera < rep[j].Camera }) {
				t.Error("report not in id order")
				return
			}
			select {
			case <-writersDone:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(writersDone)
	<-readerDone

	rep := fl.Report()
	if len(rep) != writers*perWriter || fl.Summary().Cameras != writers*perWriter {
		t.Fatalf("%d rows, %d cameras, want %d", len(rep), fl.Summary().Cameras, writers*perWriter)
	}
	for i, row := range rep {
		if row.Ingested != frames {
			t.Fatalf("%s ingested %d, want %d", row.Camera, row.Ingested, frames)
		}
		if i > 0 && rep[i-1].Camera >= row.Camera {
			t.Fatalf("rows %d,%d out of order or duplicated: %s, %s", i-1, i, rep[i-1].Camera, row.Camera)
		}
	}
}
