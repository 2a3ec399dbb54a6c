package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/citydata"
	"repro/internal/dataproc"
	"repro/internal/graphproc"
	"repro/internal/mllib"
	"repro/internal/nn"
	"repro/internal/socialgraph"
	"repro/internal/spatial"
	"repro/internal/viz"
)

// E15GeospatialCNN reproduces §III.A's "geospatial data can be viewed as
// geospatial 'images' and analyzed using CNNs": crimes are rasterized into
// grid images and a CNN predicts the next window's dominant hotspot.
func E15GeospatialCNN(rng *rand.Rand) (*Result, error) {
	cfg := spatial.DefaultHotspotConfig()
	cfg.Windows = 240
	series, err := spatial.GenerateHotspots(cfg, rng)
	if err != nil {
		return nil, err
	}
	const size = 12
	images, labels, err := series.Dataset(size)
	if err != nil {
		return nil, err
	}
	n := images.Dim(0)
	split := n * 3 / 4
	trainIdx, testIdx := seqInts(split), make([]int, 0, n-split)
	for i := split; i < n; i++ {
		testIdx = append(testIdx, i)
	}
	trainX, err := nn.GatherRows(images, trainIdx)
	if err != nil {
		return nil, err
	}
	testX, err := nn.GatherRows(images, testIdx)
	if err != nil {
		return nil, err
	}
	trainY, testY := labels[:split], labels[split:]

	r := rand.New(rand.NewSource(55))
	net := nn.NewSequential(
		nn.NewConv2D(nn.ConvConfig{InC: 1, OutC: 6, Kernel: 3, Stride: 1, Pad: 1}, nn.WithRand(r)),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewFlatten(),
		nn.NewDense(6*(size/2)*(size/2), 24, nn.WithRand(r)),
		nn.NewTanh(),
		nn.NewDense(24, cfg.Hotspots, nn.WithRand(r)),
	)
	ce, err := nn.NewSoftmaxCrossEntropy(trainY, trainX.Dim(0))
	if err != nil {
		return nil, err
	}
	opt := nn.NewAdam(0.01)
	for e := 0; e < 60; e++ {
		if _, err := nn.TrainEpoch(net, trainX, 32, opt, r, ce.Batch); err != nil {
			return nil, err
		}
	}
	logits, err := net.Forward(testX, false)
	if err != nil {
		return nil, err
	}
	cnnAcc := nn.Accuracy(logits, testY)
	majority := spatial.MajorityBaseline(testY)
	persist := 0
	for i := split; i < n; i++ {
		// Persistence baseline: predict that window i+1's dominant hotspot
		// equals window i's (labels[i] is dominant of i+1; dominant of i is
		// series.Dominant[i]).
		if series.Dominant[i] == labels[i] {
			persist++
		}
	}
	persistAcc := float64(persist) / float64(n-split)
	if cnnAcc <= majority {
		return nil, fmt.Errorf("E15: held-out CNN accuracy %.4g, majority class %.4g: want the CNN above it", cnnAcc, majority)
	}

	tb := viz.NewTable("next-window hotspot prediction (held-out)", "model", "accuracy")
	tb.AddRow("CNN on crime raster (paper §III.A)", cnnAcc)
	tb.AddRow("oracle persistence (true hotspot labels)", persistAcc)
	tb.AddRow("majority class", majority)
	return &Result{
		ID: "E15", Title: "geospatial crime images analyzed with CNNs",
		Tables: []*viz.Table{tb},
		Notes: []string{
			"paper claim (§III.A): criminal-activity locations 'can be viewed as geospatial images and analyzed using CNNs'",
			fmt.Sprintf("%d windows of %d events over metro Baton Rouge, %d persistent hotspots", cfg.Windows, cfg.EventsPerWin, cfg.Hotspots),
			"oracle persistence knows the true hotspot label of each window and is the Bayes ceiling; the CNN approaches it from raw rasters alone",
		},
	}, nil
}

// E16OpioidAnalytics reproduces the §V future-work direction: multi-source
// opioid analytics. A distributed linear regression over the district-month
// panel must converge and recover the planted causal weights (including the
// zero weight of the distractor feature).
func E16OpioidAnalytics(rng *rand.Rand) (*Result, error) {
	records, truth, err := citydata.GenerateOpioidPanel(12, 36, time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC), rng)
	if err != nil {
		return nil, err
	}
	// Each feature is centred and divided by the panel's own standard
	// deviation, so gradient descent sees unit scales whatever the units.
	const dim = 5
	n := float64(len(records))
	raw := make([]mllib.Vector, len(records))
	var mean, sd [dim]float64
	var meanY float64
	for i, rec := range records {
		raw[i] = mllib.Vector{
			rec.PrescriptionsPer1k,
			float64(rec.DrugTweets),
			float64(rec.Calls911Drug),
			float64(rec.SubstanceArrests),
			rec.TrafficVolume,
		}
		for j, x := range raw[i] {
			mean[j] += x / n
		}
		meanY += rec.OverdoseDeaths / n
	}
	for _, x := range raw {
		for j := range x {
			sd[j] += (x[j] - mean[j]) * (x[j] - mean[j]) / n
		}
	}
	for j := range sd {
		sd[j] = math.Sqrt(sd[j])
	}
	rows := make([]any, len(records))
	for i, x := range raw {
		z := make(mllib.Vector, dim)
		for j := range x {
			z[j] = (x[j] - mean[j]) / sd[j]
		}
		rows[i] = mllib.RegressionPoint{Features: z, Target: records[i].OverdoseDeaths}
	}
	eng := dataproc.NewEngine(4)
	model, err := mllib.LinearRegression(eng.Parallelize(rows, 4), dim, 500, 0.05)
	if err != nil {
		return nil, err
	}

	// Converged: the full-batch MSE gradient at the returned weights, with
	// respect to every standardized weight and the bias, is below 1e-4. A
	// converged fit reads at most 2e-6 at seeds 42–46.
	const gradBound = 1e-4
	var grad [dim + 1]float64
	var ssRes, ssTot float64
	for _, r := range rows {
		p := r.(mllib.RegressionPoint)
		diff := model.Predict(p.Features) - p.Target
		for j, z := range p.Features {
			grad[j] += diff * z / n
		}
		grad[dim] += diff / n
		ssRes += diff * diff
		ssTot += (p.Target - meanY) * (p.Target - meanY)
	}
	for j, g := range grad {
		if math.Abs(g) >= gradBound {
			return nil, fmt.Errorf("E16: the fit has not converged: MSE gradient %.3g on parameter %d, want below %g", g, j, gradBound)
		}
	}

	names := []string{"prescriptions/1k", "drug tweets", "911 drug calls", "substance arrests", "traffic volume (distractor)"}
	wants := []float64{truth.PrescriptionWeight, truth.TweetWeight, truth.CallWeight, truth.ArrestWeight, 0}
	tb := viz.NewTable("recovered causal weights (linear model)", "factor", "planted", "recovered")
	for j, name := range names {
		// Back to per-unit scale.
		w := model.Weights[j] / sd[j]
		tb.AddRow(name, wants[j], w)
		tol := 0.01
		if wants[j] == 0 {
			tol = 0.001 // the distractor
		}
		if math.Abs(w-wants[j]) >= tol {
			return nil, fmt.Errorf("E16: %s weight %.4g, planted %g: want within %g", name, w, wants[j], tol)
		}
	}
	fit := viz.NewTable("model fit", "metric", "value")
	fit.AddRow("district-months", len(records))
	fit.AddRow("R²", 1-ssRes/ssTot)
	return &Result{
		ID: "E16", Title: "opioid epidemic multi-source analytics (§V future work)",
		Tables: []*viz.Table{tb, fit},
		Notes: []string{
			"paper claim (§V): analytics over prescriptions, social networks, 911 calls, and arrests 'may uncover additional factors' behind opioid mortality",
			"the distractor feature (traffic volume) correctly receives a near-zero weight",
		},
	}, nil
}

// E17GraphAnalytics exercises the software layer's "graph-based processing"
// (GraphX et al. citations): distributed PageRank and connected components
// over the gang co-offense network.
func E17GraphAnalytics(rng *rand.Rand) (*Result, error) {
	g, err := socialgraph.Generate(socialgraph.PaperConfig(), rng)
	if err != nil {
		return nil, err
	}
	edges := graphproc.FromGraph(g)
	eng := dataproc.NewEngine(4)
	ranks, err := graphproc.PageRank(eng, edges, 15, 0.85, 4)
	if err != nil {
		return nil, err
	}
	// The top-ranked members must be among the best connected: each has at
	// least the network's 99th-percentile degree (nearest rank).
	degrees := make([]int, 0, g.NumNodes())
	for _, id := range g.Nodes() {
		deg, err := g.Degree(id)
		if err != nil {
			return nil, err
		}
		degrees = append(degrees, deg)
	}
	sort.Ints(degrees)
	p99 := degrees[(len(degrees)*99+99)/100-1]
	tb := viz.NewTable("PageRank: most central gang members", "member", "group", "degree", "pagerank")
	for _, r := range graphproc.TopK(ranks, 5) {
		grp, err := g.Group(r.Node)
		if err != nil {
			return nil, err
		}
		deg, err := g.Degree(r.Node)
		if err != nil {
			return nil, err
		}
		if deg < p99 {
			return nil, fmt.Errorf("E17: PageRank ranks %s among the top 5 with degree %d: want at least the 99th-percentile degree %d", r.Node, deg, p99)
		}
		tb.AddRow(r.Node, grp, deg, r.Score)
	}
	labels, err := graphproc.ConnectedComponents(eng, edges, 4)
	if err != nil {
		return nil, err
	}
	comps := make(map[string]int)
	for _, l := range labels {
		comps[l]++
	}
	largest := maxVal(comps)
	if len(comps) != 1 || largest != g.NumNodes() {
		return nil, fmt.Errorf("E17: %d components, the largest of %d members: want one holding all %d", len(comps), largest, g.NumNodes())
	}
	ct := viz.NewTable("connected components", "metric", "value")
	ct.AddRow("components", len(comps))
	ct.AddRow("largest component", largest)
	m := eng.Metrics()
	ct.AddRow("dataproc tasks run", m.TasksRun)
	ct.AddRow("shuffles", m.ShufflesRun)
	return &Result{
		ID: "E17", Title: "distributed graph analytics on the co-offense network",
		Tables: []*viz.Table{tb, ct},
		Notes: []string{
			"software-layer claim (§II.C): 'our cyberinfrastructure also supports ... graph-based processing'",
			"central members (investigation priorities) surface via degree-correlated PageRank",
		},
	}, nil
}

func maxVal(m map[string]int) int {
	best := 0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}
