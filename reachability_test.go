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
	"sync"
	"testing"
)

// testOnly lists the declarations that no program reaches but that stay in
// the tree, each with the reason it stays. Keys are "dir.Name" for functions,
// types, vars and consts, "dir.Recv.Name" for methods and "dir.Iface.Name"
// for interface methods, with dir relative to the module root.
var testOnly = map[string]string{
	// The paper names them; no experiment drives them yet.
	"internal/nn.NewParallelTrainer":   "the paper's data-parallel training (DESIGN §2)",
	"internal/nn.ParallelTrainer":      "the paper's data-parallel training (DESIGN §2)",
	"internal/nn.ParallelTrainer.Step": "the paper's data-parallel training (DESIGN §2)",
	"internal/nn.ZeroGrads":            "clears the master gradients in ParallelTrainer.Step; the nn gradient checks use it",
	"internal/nn.NewSGD":               "optimizer the nn tests and the data-parallel benchmark train with",
	"internal/nn.NewGlobalAvgPool":     "pooling head of the TimeDistributed tests and a gradient check",

	// Tests of live code read them as accessors or oracles.
	"internal/hbase.Table.Compact":              "forces a major compaction in the hbase model and scaling tests",
	"internal/hbase.Table.drainLocked":          "how Flush and Compact (testOnly) pay all pending flush and merge work at once",
	"internal/hbase.Table.Flush":                "forces a flush in the hbase model, fault and scaling tests and the core chaos test",
	"internal/hbase.Table.ScanPrefix":           "oracle for RowKeys in the hbase model test",
	"internal/hdfs.Cluster.Exists":              "accessor the hdfs, core and sqoop tests read",
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

	// A roadmap item is their next reader.
	"internal/hbase.Table.CrashAndRecover": "region-server recovery (ROADMAP item 5); the hbase and core chaos tests drive it",
	"internal/hdfs.Cluster.ReviveDataNode": "datanode return (ROADMAP item 8); the hdfs tests drive it",
	"internal/hbase.Table.Delete":          "the only writer of tombstones, which the store-file format carries; crash histories with deletes (ROADMAP items 5 and 8) need it, and the hbase model test drives it",
}

// testOnlyFields lists the struct fields that no program reads but that stay
// in the tree, each with its reader: a test oracle, a testOnly declaration,
// benchmark/ or a ROADMAP item. Keys are "dir.Type.field", with dir as in
// testOnly and a field of an anonymous struct type as "dir.Type.field.sub".
var testOnlyFields = map[string]string{
	// Tests read them as oracles.
	"internal/sqoop.ImportResult.Splits": "the sqoop tests check each mapper's key range against it",
	"internal/stream.Record.Offset":      "the broker model test compares polled records, address included, with its per-replica model; the stream tests check per-partition order",
	"internal/stream.Record.Partition":   "the broker model test compares polled records, address included, with its per-replica model; the stream tests check per-partition order",
	"internal/hbase.Stats.WALEntries":    "the hbase model test checks that CrashAndRecover (testOnly) replays exactly the unflushed WAL; the hbase fault tests read it",
	"internal/fog.JobResult.StartMs":     "TestReleaseTimesRespected checks that a job starts at its release time",
	"internal/fog.JobResult.FinishMs":    "TestReleaseTimesRespected checks that a job finishes one service time after its release",

	// A testOnly declaration reads or returns them.
	"internal/docstore.PlannerStats.FullScans":    "what Collection.Planner (testOnly) reports; the docstore, web and root bench tests prove index use by it",
	"internal/docstore.PlannerStats.IndexedScans": "what Collection.Planner (testOnly) reports; the docstore, web and root bench tests prove index use by it",
	"internal/fusion.CCAResult.WX":                "E11's CCA test projects each view through it with Project (testOnly)",
	"internal/fusion.CCAResult.WY":                "E11's CCA test projects each view through it with Project (testOnly)",
	"internal/fusion.GCCAResult.Projections":      "E11's GCCA test projects each view through it with ProjectView (testOnly)",

	// A roadmap item is their next reader, or deletes them.
	"internal/stream.Record.Time": "stamped from ClusterConfig.Now, which benchmark/'s stream replay sets; it goes with that replay (ROADMAP item 20), and the broker model test compares it",
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
// the binaries and the benchmark. The examples are not programs here: the
// walk skips examples/, so code that only an example calls has no reader.
var programRoots = []string{"cmd", "benchmark"}

// TestEveryDeclarationHasAProgramReader keeps library code honest: every
// top-level declaration and interface method outside tests must be reached
// from a program, or be listed in testOnly with a reason. Tests do not count
// as readers. Names are resolved by go/types, so a declaration is reached
// only by a use of that declaration, never by another one of the same name.
func TestEveryDeclarationHasAProgramReader(t *testing.T) {
	m, err := module()
	if err != nil {
		t.Fatal(err)
	}
	reached := map[string]bool{}
	for _, d := range m.decls {
		reached[d.key] = d.reached
	}
	checkListed(t, "declaration", "testOnly", reached, testOnly)
}

// TestEveryFieldHasAProgramReader keeps records honest: every field of a
// struct type outside tests must be read by a program, or be listed in
// testOnlyFields with a reason. A field is read where a reached declaration,
// or one listed in testOnly, uses its value; writing it (x.f = v, x.f[k] = v,
// x.f = append(x.f, …), x.f++, T{f: v}) is not a read. A tagged field, a
// field of a struct converted to an empty interface (fmt and encoding/json
// read it by reflection), and a field of a struct used as a map key or
// compared with == count as read. An argument to a sort, container/heap or
// slices function and the result of a heap.Interface's Pop reach an empty
// interface that no reflection reads, so they read nothing.
func TestEveryFieldHasAProgramReader(t *testing.T) {
	m, err := module()
	if err != nil {
		t.Fatal(err)
	}
	read := map[string]bool{}
	for _, f := range m.fields {
		read[f.key] = f.read
	}
	checkListed(t, "field", "testOnlyFields", read, testOnlyFields)
}

// checkListed fails on an unreached key that is not listed, on a listed key
// that is reached and on a listed key that names nothing.
func checkListed(t *testing.T, what, list string, reached map[string]bool, listed map[string]string) {
	t.Helper()
	var unread, stale, gone []string
	for k, r := range reached {
		_, ok := listed[k]
		switch {
		case !r && !ok:
			unread = append(unread, k)
		case r && ok:
			stale = append(stale, k)
		}
	}
	for k := range listed {
		if _, ok := reached[k]; !ok {
			gone = append(gone, k)
		}
	}
	report := func(msg string, keys []string) {
		if len(keys) == 0 {
			return
		}
		sort.Strings(keys)
		t.Errorf("%s (%d):\n\t%s", msg, len(keys), strings.Join(keys, "\n\t"))
	}
	report(fmt.Sprintf("no program reads these %ss; delete them or list them in %s with a reason", what, list), unread)
	report(fmt.Sprintf("these %s entries are now read by a program; drop them from %s", list, list), stale)
	report(fmt.Sprintf("these %s entries name no %s; drop them from %s", list, what, list), gone)
}

// module is the reachability of this module, checked once for both guards.
var module = sync.OnceValues(func() (*reach, error) { return reachability(".", testOnly) })

// TestReachabilityResolvesTypes pins the guard's resolution rules on the
// module in testdata/reach: a method is not reached by a same-named function
// or field, and is reached through a method value, an interface call, a
// generic instantiation or its sealed interface; a field is read by a use of
// its value in a reached or listed declaration, or by a structural rule.
func TestReachabilityResolvesTypes(t *testing.T) {
	m, err := reachability(filepath.Join("testdata", "reach"), map[string]string{"lib.Legacy": "a listed declaration"})
	if err != nil {
		t.Fatal(err)
	}
	var unread, unreadFields []string
	for _, d := range m.decls {
		if !d.reached {
			unread = append(unread, d.key)
		}
	}
	for _, f := range m.fields {
		if !f.read {
			unreadFields = append(unreadFields, f.key)
		}
	}
	sort.Strings(unread)
	sort.Strings(unreadFields)
	want := []string{
		"lib.Box.Unused",
		"lib.Config.Shortcut",
		"lib.Dataset.Join",
		"lib.Legacy",
		"lib.Shape.Perimeter",
		"lib.Square.Perimeter",
	}
	if strings.Join(unread, " ") != strings.Join(want, " ") {
		t.Errorf("unreached declarations:\n\tgot  %v\n\twant %v", unread, want)
	}
	wantFields := []string{
		"lib.Counter.n",
		"lib.Job.sorted",
		"lib.Ledger.entries",
		"lib.Ledger.note",
		"lib.Ledger.seen",
		"lib.Ledger.total",
		"lib.Ledger.viaTest",
		"lib.Task.queued",
	}
	if strings.Join(unreadFields, " ") != strings.Join(wantFields, " ") {
		t.Errorf("unread fields:\n\tgot  %v\n\twant %v", unreadFields, wantFields)
	}
}

// reach is what reachability returns: the module's top-level declarations
// and interface methods, and the fields of its struct types.
type reach struct {
	decls  []*declaration
	fields []*field
}

type declaration struct {
	key     string
	obj     types.Object
	root    bool
	node    ast.Node       // the syntax whose uses the declaration reads
	markers []types.Object // an interface's sealed-interface marker methods
	reached bool
}

// field is a named, non-embedded field of a struct type declared at the top
// level, or of an anonymous struct type inside one. Its key is the type's
// key followed by the field path. An embedded field is read through every
// promoted selector and is not checked.
type field struct {
	key  string
	read bool
}

// reachability type-checks the non-test packages of the module rooted at dir
// and returns its top-level declarations and interface methods, each marked
// reached or not, and its struct fields, each marked read or not. The roots
// are every declaration under programRoots, every init and every method named
// in implicitMethods; a declaration reaches each object it uses, a call
// through an interface method reaches the method of every module type that
// implements the interface, and an interface reaches its unexported marker
// methods (no parameters, no results). Fields are read by the reached
// declarations and by those listed (keys as in testOnly); see readFields.
func reachability(dir string, listed map[string]string) (*reach, error) {
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
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		byObj:   map[types.Object]*declaration{},
		byField: map[*types.Var]*field{},
	}
	heap, err := c.std.Import("container/heap")
	if err != nil {
		return nil, err
	}
	c.heap = heap.Scope().Lookup("Interface").Type().Underlying().(*types.Interface)
	err = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if path != dir && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata" || path == filepath.Join(dir, "examples")) {
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
	for _, d := range c.decls {
		if _, ok := listed[d.key]; d.reached || ok {
			c.readFields(d.node)
		}
	}
	return &reach{decls: c.decls, fields: c.fields}, nil
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
	fields      []*field
	byField     map[*types.Var]*field
	heap        *types.Interface // container/heap.Interface
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
				c.declareFields(d.key, s.Type)
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

// declareFields records the fields of every struct type in the type
// expression e, which belongs to the declaration or field named key. A
// tagged field is read by whatever decodes or encodes through its tag.
func (c *checker) declareFields(key string, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, f := range st.Fields.List {
			for _, name := range f.Names {
				if name.Name == "_" {
					continue
				}
				fd := &field{key: key + "." + name.Name, read: f.Tag != nil}
				c.fields = append(c.fields, fd)
				c.byField[c.info.Defs[name].(*types.Var)] = fd
				c.declareFields(fd.key, f.Type)
			}
		}
		return false
	})
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

// readFields marks the fields that the syntax under node reads. A selector
// x.f reads f unless it is written: the target of an assignment (also as
// x.f[k] and as the struct value holding an assigned field, x.f.g), the
// operand of ++ or --, or the first argument of append(x.f, …) assigned back
// to x.f. A composite-literal key writes. Three structural rules read every
// field they touch: an expression converted to an empty interface reads its
// type's fields, followed through field, element, key and pointer types,
// unless it is an argument to a sort, container/heap or slices function or
// the result of a heap.Interface's Pop; and a struct used as a map key or
// compared with == or != reads its fields, followed through struct and array
// types.
func (c *checker) readFields(node ast.Node) {
	written := map[*ast.SelectorExpr]bool{}
	var stack []ast.Node
	ast.Inspect(node, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if e, ok := n.(ast.Expr); ok {
			if m, ok := underlying(c.info.Types[e].Type).(*types.Map); ok {
				c.readCompared(m.Key())
			}
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if s := c.info.Selections[n]; s != nil && s.Kind() == types.FieldVal && !written[n] {
				c.markRead(s.Obj().(*types.Var))
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				c.markWritten(lhs, written)
				if len(n.Lhs) != len(n.Rhs) {
					continue
				}
				if n.Tok == token.ASSIGN {
					c.toAny(c.info.Types[lhs].Type, n.Rhs[i])
				}
				if call, ok := n.Rhs[i].(*ast.CallExpr); ok && c.isBuiltin(call.Fun, "append") &&
					types.ExprString(call.Args[0]) == types.ExprString(lhs) {
					c.markWritten(call.Args[0], written)
				}
			}
		case *ast.IncDecStmt:
			c.markWritten(n.X, written)
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, v := range n.Values {
					c.toAny(c.info.Types[n.Type].Type, v)
				}
			}
		case *ast.CallExpr:
			if !c.ordersOnly(n) {
				c.callToAny(n)
			}
		case *ast.CompositeLit:
			c.literalToAny(n)
		case *ast.SendStmt:
			if ch, ok := underlying(c.info.Types[n.Chan].Type).(*types.Chan); ok {
				c.toAny(ch.Elem(), n.Value)
			}
		case *ast.ReturnStmt:
			for i := len(stack) - 1; i >= 0; i-- {
				var sig types.Type
				pop := false
				switch fn := stack[i].(type) {
				case *ast.FuncDecl:
					f := c.info.Defs[fn.Name].(*types.Func)
					sig, pop = f.Type(), c.isHeapPop(f)
				case *ast.FuncLit:
					sig = c.info.Types[fn].Type
				default:
					continue
				}
				if res := sig.(*types.Signature).Results(); !pop && res.Len() == len(n.Results) {
					for j, r := range n.Results {
						c.toAny(res.At(j).Type(), r)
					}
				}
				break
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				c.readCompared(c.info.Types[n.X].Type)
			}
		}
		return true
	})
}

func (c *checker) markRead(v *types.Var) {
	if f := c.byField[v.Origin()]; f != nil {
		f.read = true
	}
}

// markWritten records the field selectors that the assignment target e
// writes rather than reads.
func (c *checker) markWritten(e ast.Expr, written map[*ast.SelectorExpr]bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			s := c.info.Selections[x]
			if s == nil || s.Kind() != types.FieldVal {
				return
			}
			written[x] = true
			// x.f.g = v and x.f[i].g = v write into f when they reach g
			// without a pointer; through a pointer they read f.
			if _, ptr := underlying(c.info.Types[x.X].Type).(*types.Pointer); ptr {
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// ordersOnly reports whether call is to a function of sort, container/heap
// or slices. They move or compare their arguments through the methods or
// functions they are given, and read no field by reflection.
func (c *checker) ordersOnly(call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	f, ok := c.info.Uses[sel.Sel].(*types.Func)
	if !ok || f.Pkg() == nil {
		return false
	}
	switch f.Pkg().Path() {
	case "sort", "container/heap", "slices":
		return true
	}
	return false
}

// isHeapPop reports whether f is the Pop method of a heap.Interface: what it
// returns goes back to heap.Pop's caller, not to a reflective reader.
func (c *checker) isHeapPop(f *types.Func) bool {
	recv := f.Type().(*types.Signature).Recv()
	return f.Name() == "Pop" && recv != nil && types.Implements(recv.Type(), c.heap)
}

func (c *checker) isBuiltin(fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := c.info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// callToAny applies toAny to a conversion T(x) and to each argument of a
// call, against its parameter's type.
func (c *checker) callToAny(call *ast.CallExpr) {
	tv := c.info.Types[call.Fun]
	if tv.IsType() {
		if len(call.Args) == 1 {
			c.toAny(tv.Type, call.Args[0])
		}
		return
	}
	sig, ok := underlying(tv.Type).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		switch {
		case sig.Variadic() && i >= params.Len()-1 && !call.Ellipsis.IsValid():
			if s, ok := underlying(params.At(params.Len() - 1).Type()).(*types.Slice); ok {
				c.toAny(s.Elem(), arg)
			}
		case i < params.Len():
			c.toAny(params.At(i).Type(), arg)
		}
	}
}

// literalToAny applies toAny to each element, key and field value of a
// composite literal, against the type it is stored as.
func (c *checker) literalToAny(lit *ast.CompositeLit) {
	t := c.info.Types[lit].Type
	if t == nil {
		return
	}
	for i, elt := range lit.Elts {
		key, value := ast.Expr(nil), elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, value = kv.Key, kv.Value
		}
		switch u := t.Underlying().(type) {
		case *types.Slice:
			c.toAny(u.Elem(), value)
		case *types.Array:
			c.toAny(u.Elem(), value)
		case *types.Map:
			c.toAny(u.Key(), key)
			c.toAny(u.Elem(), value)
		case *types.Struct:
			if id, ok := key.(*ast.Ident); ok {
				if v, ok := c.info.Uses[id].(*types.Var); ok {
					c.toAny(v.Type(), value)
				}
			} else if key == nil && i < u.NumFields() {
				c.toAny(u.Field(i).Type(), value)
			}
		}
	}
}

// toAny reads every field reachable from e's type when e is stored as the
// empty interface target: fmt and encoding/json read such a value by
// reflection.
func (c *checker) toAny(target types.Type, e ast.Expr) {
	if target == nil || e == nil {
		return
	}
	iface, ok := target.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() != 0 {
		return
	}
	t := c.info.Types[e].Type
	if t == nil || types.IsInterface(t) {
		return
	}
	c.readDeep(t, map[types.Type]bool{})
}

func (c *checker) readDeep(t types.Type, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		c.readDeep(u.Elem(), seen)
	case *types.Slice:
		c.readDeep(u.Elem(), seen)
	case *types.Array:
		c.readDeep(u.Elem(), seen)
	case *types.Map:
		c.readDeep(u.Key(), seen)
		c.readDeep(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			c.markRead(u.Field(i))
			c.readDeep(u.Field(i).Type(), seen)
		}
	}
}

// readCompared reads every field that comparing a value of type t compares.
func (c *checker) readCompared(t types.Type) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Array:
		c.readCompared(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			c.markRead(u.Field(i))
			c.readCompared(u.Field(i).Type())
		}
	}
}

func underlying(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
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
