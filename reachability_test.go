package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnly lists the declarations that no program reaches but that stay in
// the tree, each with the reason it stays. Keys are "dir.Name" for functions,
// types, vars and consts, "dir.Recv.Name" for methods and "dir.Iface.Name"
// for interface methods, with dir relative to the module root.
var testOnly = map[string]string{
	// The paper names them; no experiment drives them yet.
	"internal/nn.NewInceptionBlock":           "the paper's Inception block (DESIGN §1)",
	"internal/nn.InceptionConfig":             "the paper's Inception block (DESIGN §1)",
	"internal/nn.InceptionConfig.OutChannels": "the paper's Inception block (DESIGN §1)",
	"internal/nn.ChannelConcat":               "the join of the paper's Inception block (DESIGN §1)",
	"internal/nn.NewParallelTrainer":          "the paper's data-parallel training (DESIGN §2)",
	"internal/nn.ParallelTrainer":             "the paper's data-parallel training (DESIGN §2)",
	"internal/nn.ParallelTrainer.Step":        "the paper's data-parallel training (DESIGN §2)",
	"internal/nn.ZeroGrads":                   "clears the master gradients in ParallelTrainer.Step; the nn gradient checks use it",
	"internal/nn.NewSGD":                      "optimizer the Inception, TimeDistributed and data-parallel training tests train with",
	"internal/nn.NewGlobalAvgPool":            "head of the Inception, TimeDistributed and data-parallel training tests",

	// Tests of live code read them as accessors or oracles.
	"internal/hbase.Table.Compact":              "forces a major compaction in the hbase model and scaling tests",
	"internal/hbase.Table.Flush":                "forces a flush in the hbase model, fault and scaling tests and the core chaos test",
	"internal/hbase.Table.ScanPrefix":           "oracle for RowKeys in the hbase model test",
	"internal/hdfs.Cluster.Exists":              "accessor the hdfs, core and sqoop tests read",
	"internal/hdfs.Cluster.Stat":                "accessor the hdfs tests read block placement through",
	"internal/hdfs.FileInfo":                    "what Cluster.Stat returns",
	"internal/stream.Cluster.NodeUp":            "accessor the broker failover and race tests read",
	"internal/stream.Cluster.Committed":         "accessor the broker model test reads offsets through",
	"internal/telemetry.Histogram.Bounds":       "read by the reference exposition encoder in prom_test",
	"internal/telemetry.Histogram.BucketCounts": "read by the histogram and exposition tests",
	"internal/telemetry.Histogram.Exemplars":    "read by the reference exposition encoder and the WorstExemplar check in prom_test",
	"internal/telemetry.Registry.Gauge":         "a plain settable gauge; program gauges are GaugeFuncs or GaugeVec children, and the telemetry, tsdb and root bench tests register it",
	"internal/tensor.AllClose":                  "float comparison the nn and tensor tests use",
	"internal/tensor.MustFromSlice":             "fixture builder the nn and tensor tests use",
	"internal/tensor.Tensor.MustReshape":        "fixture builder the tensor conv tests use",
	"internal/tensor.Tensor.ApplyInPlace":       "input shaping in the nn gradient checks",
	"internal/tensor.Tensor.L2Norm":             "gradient-clipping check in the nn tests",
	"internal/faults.Injector.Stats":            "per-op counters the faults and core chaos tests read; programs read their Totals",
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
	"internal/hbase.Table.Delete":          "the only writer of tombstones, which the store-file format carries; crash histories with deletes (ROADMAP items 5 and 8) need it, and the hbase model test drives it",

	// E1's inventory names the law-enforcement batches these generate.
	"internal/citydata.GenerateMonthlyBatches": "the monthly batches E1's inventory names",
	"internal/citydata.MonthlyBatch":           "what GenerateMonthlyBatches returns",
}

// implicitMethods are called by the standard library through an interface
// (fmt.Stringer, error, sort.Interface, heap.Interface, http.Handler,
// json.Marshaler, errors.Unwrap), so no call in the module names them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// programRoots are the directories whose every declaration is a program:
// the binaries, the examples and the benchmark.
var programRoots = []string{"cmd", "examples", "benchmark"}

// TestEveryDeclarationHasAProgramReader keeps library code honest: every
// top-level declaration and interface method outside tests must be reached
// from a program, or be listed in testOnly with a reason. Tests do not count
// as readers. Names are resolved by go/types, so a declaration is reached
// only by a use of that declaration, never by another one of the same name.
func TestEveryDeclarationHasAProgramReader(t *testing.T) {
	decls, err := reachability(".")
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	var unread, stale, gone []string
	for _, d := range decls {
		keys[d.key] = true
		_, listed := testOnly[d.key]
		switch {
		case !d.reached && !listed:
			unread = append(unread, d.key)
		case d.reached && listed:
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

// TestReachabilityResolvesTypes pins the guard's resolution rules on the
// module in testdata/reach: a method is not reached by a same-named function
// or field, and is reached through a method value, an interface call, a
// generic instantiation or its sealed interface.
func TestReachabilityResolvesTypes(t *testing.T) {
	decls, err := reachability(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	var unread []string
	for _, d := range decls {
		if !d.reached {
			unread = append(unread, d.key)
		}
	}
	sort.Strings(unread)
	want := []string{
		"lib.Box.Unused",
		"lib.Config.Shortcut",
		"lib.Dataset.Join",
		"lib.Shape.Perimeter",
		"lib.Square.Perimeter",
	}
	if strings.Join(unread, " ") != strings.Join(want, " ") {
		t.Errorf("unreached declarations:\n\tgot  %v\n\twant %v", unread, want)
	}
}

type declaration struct {
	key     string
	obj     types.Object
	root    bool
	node    ast.Node       // the syntax whose uses the declaration reads
	markers []types.Object // an interface's sealed-interface marker methods
	reached bool
}

// reachability type-checks the non-test packages of the module rooted at dir
// and returns its top-level declarations and interface methods, each marked
// reached or not. The roots are every declaration under programRoots, every
// init and every method named in implicitMethods; a declaration reaches each
// object it uses, a call through an interface method reaches the method of
// every module type that implements the interface, and an interface reaches
// its unexported marker methods (no parameters, no results).
func reachability(dir string) ([]*declaration, error) {
	mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	c := &checker{
		dir:    dir,
		module: modulePath(mod),
		fset:   fset,
		std:    importer.ForCompiler(fset, "gc", nil),
		pkgs:   map[string]*types.Package{},
		info:   &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		byObj:  map[types.Object]*declaration{},
	}
	err = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if path != dir && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		_, err = c.Import(strings.TrimSuffix(c.module+"/"+filepath.ToSlash(rel), "/."))
		return err
	})
	if err != nil {
		return nil, err
	}
	c.walk()
	return c.decls, nil
}

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	return ""
}

// checker is a types.Importer that checks the module's packages from source,
// in import order, and takes the standard library from its export data.
type checker struct {
	dir, module string
	fset        *token.FileSet
	std         types.Importer
	pkgs        map[string]*types.Package
	info        *types.Info
	decls       []*declaration
	byObj       map[types.Object]*declaration
	named       []*types.Named // the module's non-generic, non-interface types
}

func (c *checker) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, c.module)
	if !ok || (rel != "" && rel[0] != '/') {
		return c.std.Import(path)
	}
	if pkg, ok := c.pkgs[path]; ok {
		return pkg, nil
	}
	rel = strings.TrimPrefix(rel, "/")
	dir := filepath.Join(c.dir, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	c.pkgs[path] = nil
	if len(files) == 0 {
		return nil, nil
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	c.pkgs[path] = pkg
	if rel == "" {
		rel = "."
	}
	program := false
	for _, r := range programRoots {
		program = program || rel == r || strings.HasPrefix(rel, r+"/")
	}
	for _, f := range files {
		for _, gd := range f.Decls {
			c.declare(rel, program, gd)
		}
	}
	return pkg, nil
}

func (c *checker) add(key string, node ast.Node, name *ast.Ident, root bool) *declaration {
	d := &declaration{key: key, obj: c.info.Defs[name], root: root, node: node}
	c.decls = append(c.decls, d)
	if d.obj != nil {
		c.byObj[d.obj] = d
	}
	return d
}

func (c *checker) declare(dir string, program bool, gd ast.Decl) {
	switch gd := gd.(type) {
	case *ast.FuncDecl:
		name := gd.Name.Name
		key := dir + "." + name
		if gd.Recv != nil {
			key = dir + "." + receiverName(gd.Recv.List[0].Type) + "." + name
		}
		c.add(key, gd, gd.Name, program || (gd.Recv == nil && name == "init") || (gd.Recv != nil && implicitMethods[name]))
	case *ast.GenDecl:
		for _, spec := range gd.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				d := c.add(dir+"."+s.Name.Name, s, s.Name, program)
				named, ok := d.obj.Type().(*types.Named)
				if !ok || s.TypeParams != nil {
					continue
				}
				it, ok := s.Type.(*ast.InterfaceType)
				if !ok {
					c.named = append(c.named, named)
					continue
				}
				for _, m := range it.Methods.List {
					if len(m.Names) == 0 {
						continue // an embedded interface
					}
					md := c.add(d.key+"."+m.Names[0].Name, m, m.Names[0], program)
					sig := md.obj.Type().(*types.Signature)
					if !md.obj.Exported() && sig.Params().Len() == 0 && sig.Results().Len() == 0 {
						d.markers = append(d.markers, md.obj)
					}
				}
			case *ast.ValueSpec:
				// var _ I = (*T)(nil) is a compile-time assertion: it
				// neither declares a name nor reads one on a program's
				// behalf.
				for _, n := range s.Names {
					if n.Name != "_" {
						c.add(dir+"."+n.Name, s, n, program)
					}
				}
			}
		}
	}
}

// walk marks every declaration the roots reach.
func (c *checker) walk() {
	seen := map[types.Object]bool{}
	var work []types.Object
	push := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if !seen[obj] {
			seen[obj] = true
			work = append(work, obj)
		}
	}
	visit := func(d *declaration) {
		if !d.reached {
			d.reached = true
			c.reads(d, push)
		}
	}
	for _, d := range c.decls {
		if d.root {
			visit(d)
			if d.obj != nil {
				push(d.obj)
			}
		}
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if d := c.byObj[obj]; d != nil {
			visit(d)
		}
		if f, ok := obj.(*types.Func); ok {
			c.dispatch(f, push)
		}
	}
}

// reads pushes every object the declaration's syntax uses, and an
// interface's marker methods.
func (c *checker) reads(d *declaration, push func(types.Object)) {
	ast.Inspect(d.node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.info.Uses[id]; obj != nil {
				push(obj)
			}
		}
		return true
	})
	for _, m := range d.markers {
		push(m)
	}
}

// dispatch pushes, for a method of an interface, the method of that name on
// every module type that implements the interface.
func (c *checker) dispatch(f *types.Func, push func(types.Object)) {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return
	}
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, t := range c.named {
		ptr := types.NewPointer(t)
		if !types.Implements(ptr, iface) {
			continue
		}
		if m, _, _ := types.LookupFieldOrMethod(ptr, false, f.Pkg(), f.Name()); m != nil {
			push(m)
		}
	}
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
