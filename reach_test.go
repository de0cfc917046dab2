package repro_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsReached walks the non-test imports of every
// command, the benchmark and the experiment suite, and fails naming each
// package under internal/ that none of them reaches. Such a package backs
// no experiment, command or benchmark: delete it, or make a root use it.
// Examples are deliberately not roots, so a package an example alone
// keeps alive still fails here.
func TestEveryInternalPackageIsReached(t *testing.T) {
	const module = "repro/"
	roots := []string{"bench", "internal/exp"}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cmds {
		if c.IsDir() {
			roots = append(roots, filepath.Join("cmd", c.Name()))
		}
	}

	reached := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		if reached[dir] {
			return
		}
		reached[dir] = true
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("reading %s: %v", dir, err)
		}
		for _, imp := range pkg.Imports {
			if rel, ok := strings.CutPrefix(imp, module); ok {
				visit(rel)
			}
		}
	}
	for _, r := range roots {
		visit(r)
	}

	var unreached []string
	err = filepath.WalkDir("internal", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) || (err == nil && len(pkg.GoFiles) == 0) {
			return nil
		}
		if err != nil {
			return err
		}
		if !reached[filepath.ToSlash(dir)] {
			unreached = append(unreached, filepath.ToSlash(dir))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("packages no command, benchmark or experiment imports: %s", strings.Join(unreached, ", "))
	}
}

// TestEveryIdentifierIsReached type-checks the whole module and fails
// naming each package-level function, method, type, constant or variable
// under internal/ or cmd/ that no program reaches, and each field that
// non-test code reads but never sets, or sets only as a default in
// withDefaults. An identifier that only its own package's tests use
// belongs in a _test.go file; one nothing uses goes; a field no program
// sets is a constant. What must stay anyway is listed in identAllowlist
// with its reason.
func TestEveryIdentifierIsReached(t *testing.T) {
	flagged, err := scanIdentifiers(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range judgeIdentifiers(flagged, identAllowlist) {
		t.Error(msg)
	}
}

// TestIdentifierScanFixture pins the scan's findings on a small module
// that holds one case of each rule.
func TestIdentifierScanFixture(t *testing.T) {
	flagged, err := scanIdentifiers(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	got := judgeIdentifiers(flagged, map[string]string{
		"internal/lib.Gone": "was deleted since",
	})
	want := []string{
		"internal/lib.Dead: nothing reaches it: delete it",
		"internal/lib.Gone: allowlisted but no longer flagged: drop the entry",
		"internal/lib.Options.Unset: non-test code reads this field but never sets it: fold it into a constant",
		"internal/lib.OwnTestOnly: only its own package's tests use it: move it into a _test.go file or delete it",
		"internal/lib.Run.stopped: non-test code reads this field but never sets it: fold it into a constant",
		"internal/lib.Tuned.Fixed: only withDefaults sets it: fold it into a constant",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// identAllowlist names what the identifier scan flags but must stay, each
// with its reason.
var identAllowlist = map[string]string{
	"internal/adversary.Partitioner.Victim": partitionerWhy,
	"internal/adversary.Partitioner.CutAt":  partitionerWhy,
	"internal/adversary.Partitioner.HealAt": partitionerWhy,
}

// partitionerWhy: the transient partition is the C2 construction (DESIGN.md
// row 10c); internal/exp's trace-digest cell sets these fields and pins
// the run, so no program sets them but the construction is live.
const partitionerWhy = "the C2 partition construction, pinned by internal/exp's digest cell"

// The four verdicts scanIdentifiers can return for an identifier.
const (
	flagUnreached = "nothing reaches it: delete it"
	flagOwnTests  = "only its own package's tests use it: move it into a _test.go file or delete it"
	flagUnset     = "non-test code reads this field but never sets it: fold it into a constant"
	flagDefaulted = "only withDefaults sets it: fold it into a constant"
)

// fieldUses records, per field key, whether non-test code reads the
// field, writes it, or writes it as a default inside withDefaults.
type fieldUses struct{ read, written, defaulted map[string]bool }

// judgeIdentifiers turns the scan's findings into sorted failure messages:
// one per flagged identifier the allowlist does not name, and one per
// allowlist entry that no longer matches a finding.
func judgeIdentifiers(flagged, allow map[string]string) []string {
	var msgs []string
	for k, why := range flagged {
		if _, ok := allow[k]; !ok {
			msgs = append(msgs, k+": "+why)
		}
	}
	for k := range allow {
		if _, ok := flagged[k]; !ok {
			msgs = append(msgs, k+": allowlisted but no longer flagged: drop the entry")
		}
	}
	sort.Strings(msgs)
	return msgs
}

// listedPkg is the part of `go list -json` the scan reads.
type listedPkg struct {
	ImportPath, Dir, Export            string
	Standard                           bool
	GoFiles, TestGoFiles, XTestGoFiles []string
}

// checkedUnit is one type-checked file set: a package's non-test files,
// or a test variant of it (its in-package or its external tests).
type checkedUnit struct {
	rel   string // the package's path inside the module
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	test  bool
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// identScan holds the type-checked module for scanIdentifiers.
type identScan struct {
	fset    *token.FileSet
	mod     string
	list    map[string]*listedPkg
	std     types.Importer
	real    map[string]*checkedUnit // non-test files, by import path
	inTest  map[string]*checkedUnit // non-test plus in-package test files
	units   []*checkedUnit
	fields  map[*types.Var]string // field -> "pkg.Type.Field"
	pkgOf   map[string]string     // key -> its package inside the module
	realErr []error
}

// scanIdentifiers type-checks every package of the module rooted at dir,
// its tests included, and returns the identifiers it flags under internal/
// and cmd/, keyed "pkg.Name", "pkg.Type.Method" or "pkg.Type.Field" with
// pkg relative to the module, each with its verdict.
//
// Roots are main and init of every command, bench and examples/ program,
// every init and every package-level var initialiser. A declaration
// reaches what it names, with generic uses resolved to their origin. A
// method is also reached when its receiver type is and its name is a
// method of an interface the module declares or a std package it imports
// declares. A use from another package's test reaches too, since that
// code cannot move; a use from the package's own tests alone earns
// flagOwnTests. A field is flagged when non-test code reads it and never
// writes it (see fieldAccess), or writes it only through the receiver of
// a withDefaults or WithDefaults method: a default no program overrides.
func scanIdentifiers(dir string) (map[string]string, error) {
	s := &identScan{
		fset:   token.NewFileSet(),
		list:   map[string]*listedPkg{},
		real:   map[string]*checkedUnit{},
		inTest: map[string]*checkedUnit{},
		fields: map[*types.Var]string{},
		pkgOf:  map[string]string{},
	}
	if err := s.load(dir); err != nil {
		return nil, err
	}
	var paths []string
	for p, lp := range s.list {
		if !lp.Standard {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := s.checkReal(p); err != nil {
			return nil, err
		}
	}
	if len(s.realErr) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", dir, s.realErr[0])
	}
	for _, p := range paths {
		if err := s.checkTests(p); err != nil {
			return nil, err
		}
	}
	for _, u := range s.units {
		s.recordFields(u.pkg)
	}
	return s.judge(), nil
}

// load runs `go list` for the package graph and the export data of every
// std package the module or its tests import.
func (s *identScan) load(dir string) error {
	gomod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(gomod), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			s.mod = strings.TrimSpace(m)
		}
	}
	cmd := exec.Command("go", "list", "-deps", "-test", "-export",
		"-json=ImportPath,Dir,Export,Standard,GoFiles,TestGoFiles,XTestGoFiles", "./...")
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.String())
	}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for dec.More() {
		lp := new(listedPkg)
		if err := dec.Decode(lp); err != nil {
			return err
		}
		// Skip the test variants and generated test mains: the scan builds
		// its own from the source.
		if strings.Contains(lp.ImportPath, " [") || strings.HasSuffix(lp.ImportPath, ".test") {
			continue
		}
		s.list[lp.ImportPath] = lp
	}
	s.std = importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		lp := s.list[path]
		if lp == nil || lp.Export == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(lp.Export)
	})
	return nil
}

func (s *identScan) inModule(path string) bool {
	return path == s.mod || strings.HasPrefix(path, s.mod+"/")
}

func (s *identScan) relPath(path string) string {
	if path == s.mod {
		return "."
	}
	return strings.TrimPrefix(path, s.mod+"/")
}

func (s *identScan) parse(lp *listedPkg, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(lp.Dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (s *identScan) check(path string, files []*ast.File, imp importerFunc, test bool) *checkedUnit {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: imp,
		// A test variant can import a package that imports the non-test
		// variant, which go/types sees as two types of one name; every
		// use still resolves, so only the non-test check must be clean.
		Error: func(err error) {
			if !test {
				s.realErr = append(s.realErr, err)
			}
		},
	}
	pkg, _ := conf.Check(path, s.fset, files, info)
	// An external test package belongs to the package it tests.
	rel := s.relPath(strings.TrimSuffix(path, "_test"))
	u := &checkedUnit{rel: rel, pkg: pkg, files: files, info: info, test: test}
	s.units = append(s.units, u)
	return u
}

// importReal resolves an import to the non-test variant of a module
// package, or to a std package's export data.
func (s *identScan) importReal(path string) (*types.Package, error) {
	if !s.inModule(path) {
		return s.std.Import(path)
	}
	u, err := s.checkReal(path)
	if err != nil {
		return nil, err
	}
	return u.pkg, nil
}

func (s *identScan) checkReal(path string) (*checkedUnit, error) {
	if u := s.real[path]; u != nil {
		return u, nil
	}
	lp := s.list[path]
	if lp == nil {
		return nil, fmt.Errorf("%s is not listed", path)
	}
	files, err := s.parse(lp, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	u := s.check(path, files, s.importReal, false)
	s.real[path] = u
	return u, nil
}

// checkTests type-checks a package's in-package tests together with its
// non-test files, then its external tests against that variant.
func (s *identScan) checkTests(path string) error {
	lp := s.list[path]
	if len(lp.TestGoFiles) > 0 {
		files, err := s.parse(lp, append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...))
		if err != nil {
			return err
		}
		s.inTest[path] = s.check(path, files, s.importReal, true)
	}
	if len(lp.XTestGoFiles) > 0 {
		files, err := s.parse(lp, lp.XTestGoFiles)
		if err != nil {
			return err
		}
		s.check(path+"_test", files, func(p string) (*types.Package, error) {
			if u := s.inTest[p]; p == path && u != nil {
				return u.pkg, nil
			}
			return s.importReal(p)
		}, true)
	}
	return nil
}

// recordFields names every field of the package's struct types, so that a
// field keys the same in every variant of its package.
func (s *identScan) recordFields(pkg *types.Package) {
	if pkg == nil {
		return
	}
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				s.fields[st.Field(i)] = s.relPath(pkg.Path()) + "." + name + "." + st.Field(i).Name()
			}
		}
	}
}

// key names a package-level object, a concrete or interface method, or a
// field of a package-level struct type; anything else keys "".
func (s *identScan) key(obj types.Object) string {
	k := s.keyOf(obj)
	if k != "" {
		s.pkgOf[k] = s.relPath(obj.Pkg().Path())
	}
	return k
}

func (s *identScan) keyOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !s.inModule(obj.Pkg().Path()) {
		return ""
	}
	pkg := s.relPath(obj.Pkg().Path())
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return pkg + "." + n.Origin().Obj().Name() + "." + o.Name()
			}
			return ""
		}
		obj = o
	case *types.Var:
		if o.IsField() {
			return s.fields[o.Origin()]
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return pkg + "." + obj.Name()
}

// usesIn lists the keys of every object named inside n.
func (s *identScan) usesIn(info *types.Info, n ast.Node) []string {
	var keys []string
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if k := s.key(info.Uses[id]); k != "" {
				keys = append(keys, k)
			}
		}
		return true
	})
	return keys
}

func (s *identScan) judge() map[string]string {
	judged := map[string]bool{}
	deps := map[string][]string{}
	var roots, ownTests []string
	ifaceNames := map[string]bool{"Error": true}
	addIface := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				ifaceNames[iface.Method(i).Name()] = true
			}
		}
	}
	use := fieldUses{read: map[string]bool{}, written: map[string]bool{}, defaulted: map[string]bool{}}
	stdImports := map[string]bool{}

	for _, u := range s.units {
		isRoot := u.rel == "bench" || strings.HasPrefix(u.rel, "cmd/") || strings.HasPrefix(u.rel, "examples/")
		judging := strings.HasPrefix(u.rel, "internal/") || strings.HasPrefix(u.rel, "cmd/")
		for _, f := range u.files {
			if strings.HasSuffix(s.fset.File(f.Pos()).Name(), "_test.go") != u.test {
				continue
			}
			if u.test {
				// Another package's test cannot move, so its uses are
				// roots; the package's own tests only earn flagOwnTests.
				for _, k := range s.usesIn(u.info, f) {
					if s.pkgOf[k] == u.rel {
						ownTests = append(ownTests, k)
					} else {
						roots = append(roots, k)
					}
				}
				continue
			}
			s.fieldAccess(u.info, f, use)
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					addIface(u.info.Types[it].Type)
				}
				return true
			})
			for _, imp := range f.Imports {
				if path := strings.Trim(imp.Path.Value, `"`); !s.inModule(path) && path != "unsafe" {
					stdImports[path] = true
				}
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					k := s.key(u.info.Defs[d.Name])
					deps[k] = s.usesIn(u.info, d)
					if d.Recv == nil && (d.Name.Name == "init" || isRoot && d.Name.Name == "main") {
						roots = append(roots, k)
					} else if judging {
						judged[k] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							k := s.key(u.info.Defs[sp.Name])
							deps[k] = s.usesIn(u.info, sp)
							judged[k] = judging
						case *ast.ValueSpec:
							uses := s.usesIn(u.info, sp)
							if d.Tok == token.VAR && len(sp.Values) > 0 {
								roots = append(roots, uses...)
							}
							for _, name := range sp.Names {
								obj := u.info.Defs[name]
								k := s.key(obj)
								if k == "" || name.Name == "_" {
									continue
								}
								deps[k] = uses
								// An implicitly typed constant of an iota
								// block still names its type.
								if n, ok := obj.Type().(*types.Named); ok {
									deps[k] = append(deps[k], s.key(n.Obj()))
								}
								judged[k] = judging
							}
						}
					}
				}
			}
		}
	}

	for path := range stdImports {
		pkg, err := s.std.Import(path)
		if err != nil {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}

	// A reached type reaches its methods that an interface could call.
	for _, u := range s.units {
		if u.test {
			continue
		}
		for _, name := range u.pkg.Scope().Names() {
			tn, ok := u.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				tk := s.key(tn)
				for i := 0; i < n.NumMethods(); i++ {
					if m := n.Method(i); ifaceNames[m.Name()] {
						deps[tk] = append(deps[tk], s.key(m))
					}
				}
			}
		}
	}

	reach := func(seeds []string) map[string]bool {
		seen := map[string]bool{}
		stack := seeds
		for len(stack) > 0 {
			k := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[k] {
				continue
			}
			seen[k] = true
			stack = append(stack, deps[k]...)
		}
		return seen
	}
	byPrograms := reach(roots)
	byTests := reach(append(roots, ownTests...))

	flagged := map[string]string{}
	for k, j := range judged {
		switch {
		case !j || k == "" || byPrograms[k]:
		case byTests[k]:
			flagged[k] = flagOwnTests
		default:
			flagged[k] = flagUnreached
		}
	}
	for _, k := range s.fields {
		switch {
		case !use.read[k] || use.written[k] || !strings.HasPrefix(k, "internal/") && !strings.HasPrefix(k, "cmd/"):
		case use.defaulted[k]:
			flagged[k] = flagDefaulted
		default:
			flagged[k] = flagUnset
		}
	}
	return flagged
}

// fieldAccess sorts every use of a field in f into a read or a write.
// Writes are composite literal elements, assignments, ++/--, an address
// taken (explicitly or by a pointer-receiver call), each of those made to
// an element of the field (x.f[i] = …) and encoding/json decoding into a
// value that holds the field. A write made through the receiver of a
// withDefaults or WithDefaults method counts apart, as a default.
func (s *identScan) fieldAccess(info *types.Info, f *ast.File, use fieldUses) {
	for _, decl := range f.Decls {
		var recv types.Object
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && len(fd.Recv.List[0].Names) > 0 &&
			(fd.Name.Name == "withDefaults" || fd.Name.Name == "WithDefaults") {
			recv = info.Defs[fd.Recv.List[0].Names[0]]
		}
		s.declFieldAccess(info, decl, recv, use)
	}
}

// declFieldAccess records the field uses of one declaration; recv, when
// not nil, is the receiver of a withDefaults method whose writes count as
// defaults.
func (s *identScan) declFieldAccess(info *types.Info, decl ast.Decl, recv types.Object, use fieldUses) {
	write := func(k string, byDefault bool) {
		if byDefault {
			use.defaulted[k] = true
		} else {
			use.written[k] = true
		}
	}
	// fromRecv reports whether the chain e is rooted at recv.
	fromRecv := func(e ast.Expr) bool {
		for recv != nil {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.Ident:
				return info.Uses[x] == recv
			default:
				return false
			}
		}
		return false
	}
	writes := map[*ast.Ident]bool{} // selector -> whether the write is a default
	var markChain func(e ast.Expr, byDefault bool)
	markChain = func(e ast.Expr, byDefault bool) {
		switch x := e.(type) {
		case *ast.ParenExpr:
			markChain(x.X, byDefault)
		case *ast.IndexExpr:
			markChain(x.X, byDefault)
		case *ast.SelectorExpr:
			writes[x.Sel] = byDefault
			// A promoted field is written through the embedded fields
			// that lead to it.
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				t := sel.Recv()
				for _, i := range sel.Index()[:len(sel.Index())-1] {
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem()
					}
					f := t.Underlying().(*types.Struct).Field(i)
					if k := s.key(f); k != "" {
						write(k, byDefault)
					}
					t = f.Type()
				}
			}
			markChain(x.X, byDefault)
		case *ast.StarExpr:
			markChain(x.X, byDefault)
		}
	}
	mark := func(e ast.Expr) { markChain(e, fromRecv(e)) }
	var markType func(t types.Type, seen map[types.Type]bool)
	markType = func(t types.Type, seen map[types.Type]bool) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch x := t.(type) {
		case *types.Named:
			markType(x.Underlying(), seen)
		case *types.Pointer:
			markType(x.Elem(), seen)
		case *types.Slice:
			markType(x.Elem(), seen)
		case *types.Array:
			markType(x.Elem(), seen)
		case *types.Map:
			markType(x.Elem(), seen)
		case *types.Struct:
			for i := 0; i < x.NumFields(); i++ {
				if k := s.key(x.Field(i)); k != "" {
					write(k, false)
				}
				markType(x.Field(i).Type(), seen)
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				mark(l)
			}
		case *ast.IncDecStmt:
			mark(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				mark(x.X)
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.MethodVal && !sel.Indirect() {
				if _, ptr := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					mark(x.X)
				}
			}
		case *ast.CompositeLit:
			t := info.Types[x].Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if t == nil {
				break
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, e := range x.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						writes[id] = false
					}
				} else if k := s.key(st.Field(i)); k != "" {
					write(k, false)
				}
			}
		case *ast.CallExpr:
			var fn *types.Func
			switch c := x.Fun.(type) {
			case *ast.SelectorExpr:
				fn, _ = info.Uses[c.Sel].(*types.Func)
			case *ast.Ident:
				fn, _ = info.Uses[c].(*types.Func)
			}
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
				break
			}
			arg := -1
			if fn.Name() == "Unmarshal" && len(x.Args) == 2 {
				arg = 1
			} else if fn.Name() == "Decode" && len(x.Args) == 1 {
				arg = 0
			}
			if arg >= 0 {
				markType(info.Types[x.Args[arg]].Type, map[types.Type]bool{})
			}
		}
		return true
	})
	ast.Inspect(decl, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || !v.IsField() || s.key(v) == "" {
			return true
		}
		if byDefault, ok := writes[id]; ok {
			write(s.key(v), byDefault)
		} else {
			use.read[s.key(v)] = true
		}
		return true
	})
}
