package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// testOnly lists the declarations that no program reaches but that stay in
// the tree, each with the reason it stays. Keys are "dir.Name" for functions,
// types, vars and consts and "dir.Recv.Name" for methods, with dir relative
// to the module root.
var testOnly = map[string]string{
	// The paper names them; no experiment drives them yet.
	"internal/nn.NewInceptionBlock":           "the paper's Inception block (DESIGN §1)",
	"internal/nn.InceptionConfig":             "the paper's Inception block (DESIGN §1)",
	"internal/nn.InceptionConfig.OutChannels": "the paper's Inception block (DESIGN §1)",
	"internal/nn.ChannelConcat":               "the join of the paper's Inception block (DESIGN §1)",
	"internal/nn.NewParallelTrainer":          "the paper's data-parallel training (DESIGN §2)",
	"internal/nn.NewSGD":                      "optimizer the Inception, TimeDistributed and data-parallel training tests train with",
	"internal/nn.NewGlobalAvgPool":            "head of the Inception, TimeDistributed and data-parallel training tests",

	// Tests of live code read them as accessors or oracles.
	"internal/hbase.Table.Compact":              "forces a major compaction in the hbase model and scaling tests",
	"internal/hbase.Table.ScanPrefix":           "oracle for RowKeys in the hbase model test",
	"internal/hdfs.Cluster.Exists":              "accessor the hdfs, core and sqoop tests read",
	"internal/hdfs.Cluster.Stat":                "accessor the hdfs tests read block placement through",
	"internal/hdfs.FileInfo":                    "what Cluster.Stat returns",
	"internal/stream.Cluster.NodeUp":            "accessor the broker failover and race tests read",
	"internal/stream.Cluster.Committed":         "accessor the broker model test reads offsets through",
	"internal/telemetry.Histogram.Bounds":       "read by the reference exposition encoder in prom_test",
	"internal/telemetry.Histogram.BucketCounts": "read by the histogram and exposition tests",
	"internal/tensor.AllClose":                  "float comparison the nn and tensor tests use",
	"internal/tensor.MustFromSlice":             "fixture builder the nn and tensor tests use",
	"internal/tensor.Tensor.MustReshape":        "fixture builder the tensor conv tests use",
	"internal/tensor.Tensor.ApplyInPlace":       "input shaping in the nn gradient checks",
	"internal/tensor.Tensor.L2Norm":             "gradient-clipping check in the nn tests",
	"internal/tensor.Tensor.ArgMax":             "part of the Tensor reductions beside Max; tensor tests check it",
	"internal/tensor.Tensor.Mul":                "part of the Tensor elementwise ops beside Add and Sub; tensor tests check it",
	"internal/tensor.Tensor.SetRow":             "inverse of Row; tensor tests check the pair",
	"internal/flume.DedupSink.Skipped":          "counter the flume redelivery test reads",
	"internal/retry.DLQ.Letters":                "accessor the retry and flume tests read",
	"internal/docstore.Collection.Planner":      "proves index use in the docstore, web and root bench tests",
	"internal/docstore.PlannerStats":            "what Collection.Planner returns",
	"internal/core.Infrastructure.DeadLetters":  "accessor the core resilience and pinned tests read",
	"internal/fusion.Project":                   "E11's CCA test checks recovery through it",
	"internal/fusion.ProjectView":               "E11's GCCA test checks recovery through it",
	"internal/fusion.Autoencoder.Reconstruct":   "E11's autoencoder test checks reconstruction through it",
	"internal/viz.Table.NumRows":                "accessor the viz and experiments tests read",
	"internal/rdbms.Table.Columns":              "accessor the rdbms test reads",
	"internal/fog.Topology.NodesByTier":         "accessor the fog topology test reads",
	"internal/nn.ExitPolicy.ShouldExit":         "the early-exit rule the branch tests check",
	"internal/yarn.ResourceManager.Pending":     "queue depth the yarn, dataproc and core tests read",
	"internal/yarn.ResourceManager.Running":     "container count the yarn and dataproc tests read",

	// A roadmap item is their next reader.
	"internal/hbase.Table.CrashAndRecover": "region-server recovery (ROADMAP item 5); the hbase and core chaos tests drive it",
	"internal/hdfs.Cluster.ReviveDataNode": "datanode return (ROADMAP item 8); the hdfs tests drive it",

	// E1's inventory names the law-enforcement batches these generate.
	"internal/citydata.GenerateMonthlyBatches": "the monthly batches E1's inventory names",
	"internal/citydata.MonthlyBatch":           "what GenerateMonthlyBatches returns",
}

// implicitMethods are called by the standard library through an interface
// (fmt.Stringer, error, sort.Interface, heap.Interface, http.Handler,
// json.Marshaler, errors.Unwrap), so no identifier names them at the call.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// programRoots are the directories whose every declaration is a program:
// the binaries, the examples and the benchmark.
var programRoots = []string{"cmd", "examples", "benchmark"}

type declaration struct {
	key   string
	name  string
	root  bool
	reads []string // identifiers the declaration mentions
}

// TestEveryDeclarationHasAProgramReader keeps library code honest: every
// top-level declaration outside tests must be reachable from a program, by
// name, or be listed in testOnly with a reason. Tests do not count as
// readers. Matching is by bare identifier, so a name used anywhere live keeps
// every declaration of that name; the check can miss dead code but never
// flags live code.
func TestEveryDeclarationHasAProgramReader(t *testing.T) {
	decls := parseDeclarations(t, ".")
	byName := map[string][]*declaration{}
	keys := map[string]bool{}
	for _, d := range decls {
		byName[d.name] = append(byName[d.name], d)
		keys[d.key] = true
	}

	reached := map[*declaration]bool{}
	var work []*declaration
	for _, d := range decls {
		if d.root {
			reached[d] = true
			work = append(work, d)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for _, id := range d.reads {
			for _, r := range byName[id] {
				if !reached[r] {
					reached[r] = true
					work = append(work, r)
				}
			}
		}
	}

	var unread, stale, gone []string
	for _, d := range decls {
		_, listed := testOnly[d.key]
		switch {
		case !reached[d] && !listed:
			unread = append(unread, d.key)
		case reached[d] && listed:
			stale = append(stale, d.key)
		}
	}
	for k := range testOnly {
		if !keys[k] {
			gone = append(gone, k)
		}
	}
	report := func(what string, list []string) {
		if len(list) == 0 {
			return
		}
		sort.Strings(list)
		t.Errorf("%s (%d):\n\t%s", what, len(list), strings.Join(list, "\n\t"))
	}
	report("no program reaches these declarations; delete them or list them in testOnly with a reason", unread)
	report("these testOnly entries are now reached by a program; drop them from testOnly", stale)
	report("these testOnly entries name no declaration; drop them from testOnly", gone)
}

// parseDeclarations returns every top-level declaration in the module's
// non-test Go files under dir.
func parseDeclarations(t *testing.T, dir string) []*declaration {
	t.Helper()
	fset := token.NewFileSet()
	var decls []*declaration
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != dir && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(filepath.Dir(path))
		program := false
		for _, r := range programRoots {
			if rel == r || strings.HasPrefix(rel, r+"/") {
				program = true
			}
		}
		for _, gd := range f.Decls {
			decls = append(decls, declarationsOf(rel, program, gd)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

func declarationsOf(dir string, program bool, gd ast.Decl) []*declaration {
	switch gd := gd.(type) {
	case *ast.FuncDecl:
		key, name := dir+"."+gd.Name.Name, gd.Name.Name
		if gd.Recv != nil {
			key = dir + "." + receiverName(gd.Recv.List[0].Type) + "." + name
		}
		return []*declaration{{
			key:   key,
			name:  name,
			root:  program || (gd.Recv == nil && name == "init") || (gd.Recv != nil && implicitMethods[name]),
			reads: identifiers(gd, gd.Name),
		}}
	case *ast.GenDecl:
		var out []*declaration
		for _, spec := range gd.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				out = append(out, &declaration{
					key: dir + "." + s.Name.Name, name: s.Name.Name, root: program,
					reads: identifiers(s, s.Name),
				})
			case *ast.ValueSpec:
				// var _ I = (*T)(nil) is a compile-time assertion: it
				// neither declares a name nor reads one on a program's
				// behalf.
				for _, n := range s.Names {
					if n.Name == "_" {
						continue
					}
					out = append(out, &declaration{
						key: dir + "." + n.Name, name: n.Name, root: program,
						reads: identifiers(s, s.Names...),
					})
				}
			}
		}
		return out
	}
	return nil
}

func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// identifiers lists the names node mentions, other than the names it
// declares.
func identifiers(node ast.Node, declared ...*ast.Ident) []string {
	var ids []string
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !slices.Contains(declared, id) {
			ids = append(ids, id.Name)
		}
		return true
	})
	return ids
}
