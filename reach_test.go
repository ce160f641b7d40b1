package respat_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testSupport lists the packages that exist only to serve tests. They
// are exempt from the reachability rule, and no production package may
// import one.
var testSupport = map[string]bool{
	"respat/internal/chaos":     true,
	"respat/internal/docscheck": true,
	"respat/internal/promlint":  true,
}

// stdlibCalled names the methods the standard library calls through its
// own interfaces (fmt.Stringer, error, http.Handler, json.Marshaler,
// flag.Value, sort.Interface, heap.Interface, io.Reader/Writer/Closer,
// http.ResponseWriter, http.RoundTripper). Such a method is reached
// whenever its type is.
var stdlibCalled = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"MarshalJSON": true, "Set": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true,
	"WriteHeader": true, "RoundTrip": true,
}

// TestProductionCodeReachable checks that every function, method and
// named type of a production package is reachable from a production
// root, so that code only tests call lives in _test.go files.
//
// Roots are main in every main package (cmd/, examples/ and the
// perfbench module), init functions, package-level var initialisers
// and every exported identifier of the respat facade. A function or
// type is reached when reached code uses it. A method is reached when
// reached code selects it, or when its type is reached and reached
// code selects its name, or the standard library calls it through an
// interface (stdlibCalled).
func TestProductionCodeReachable(t *testing.T) {
	prog, err := loadProgram()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prog.pkgs {
		if testSupport[p.path] {
			continue
		}
		for _, imp := range p.types.Imports() {
			if testSupport[imp.Path()] {
				t.Errorf("production package %s imports test-support package %s", p.path, imp.Path())
			}
		}
	}
	var dead []string
	for _, n := range prog.unreached() {
		pos := prog.fset.Position(n.obj.Pos())
		dead = append(dead, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, n.name()))
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		t.Errorf("%d production symbols are reachable only from tests; delete them or move them into _test.go files:\n%s",
			len(dead), strings.Join(dead, "\n"))
	}
}

// program is the type-checked non-test code of the module and of the
// perfbench module beside it, with its declarations as a graph.
type program struct {
	fset  *token.FileSet
	pkgs  map[string]*pkg
	std   types.Importer
	nodes map[types.Object]*node
	roots []*node
}

type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// node is one package-level declaration: a function, method, named
// type, constant or variable.
type node struct {
	obj     types.Object
	uses    []*node  // declarations its code uses
	selects []string // field and method names its code selects
	recv    *node    // for a method, its receiver's base type
	// report marks the functions, methods and types the rule covers.
	report  bool
	reached bool
}

func (n *node) name() string {
	if n.recv != nil {
		return n.obj.Pkg().Name() + "." + n.recv.obj.Name() + "." + n.obj.Name()
	}
	return n.obj.Pkg().Name() + "." + n.obj.Name()
}

// loadProgram parses and type-checks every non-test package under the
// repository root. Directory d holds package "respat/d": the perfbench
// module's path is respat/perfbench, so one mapping serves both
// modules.
func loadProgram() (*program, error) {
	prog := &program{
		fset:  token.NewFileSet(),
		pkgs:  map[string]*pkg{},
		nodes: map[types.Object]*node{},
	}
	prog.std = importer.ForCompiler(prog.fset, "source", nil)
	var paths []string
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		path := "respat"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		p := &pkg{path: path}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(prog.fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		prog.pkgs[path] = p
		paths = append(paths, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, path := range paths {
		if _, err := prog.Import(path); err != nil {
			return nil, err
		}
	}
	for _, path := range paths {
		if !testSupport[path] {
			prog.addDecls(prog.pkgs[path])
		}
	}
	return prog, nil
}

// Import type-checks a package of the program on first use, and hands
// standard-library paths to the source importer.
func (prog *program) Import(path string) (*types.Package, error) {
	p, ok := prog.pkgs[path]
	if !ok {
		return prog.std.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: prog}
	tp, err := conf.Check(path, prog.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	p.types = tp
	return tp, nil
}

// node returns the graph node of a package-level object of a
// production package, or nil for anything else.
func (prog *program) node(obj types.Object) *node {
	if obj == nil {
		return nil
	}
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		if o.IsField() {
			return nil
		}
		obj = o.Origin()
	}
	if obj.Pkg() == nil || testSupport[obj.Pkg().Path()] || prog.pkgs[obj.Pkg().Path()] == nil {
		return nil
	}
	if n, ok := prog.nodes[obj]; ok {
		return n
	}
	var recv *types.Named
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		t := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if recv, ok = t.(*types.Named); !ok || types.IsInterface(recv) {
			return nil
		}
	} else if obj.Parent() != obj.Pkg().Scope() {
		return nil
	}
	n := &node{obj: obj}
	prog.nodes[obj] = n
	if recv != nil {
		n.recv = prog.node(recv.Origin().Obj())
	}
	return n
}

// addDecls adds p's declarations to the graph, with an edge to every
// declaration their code uses.
func (prog *program) addDecls(p *pkg) {
	reported := !strings.HasPrefix(p.path, "respat/perfbench")
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				n := prog.node(p.info.Defs[d.Name])
				if n == nil { // init is in no scope
					n = &node{}
					prog.roots = append(prog.roots, n)
				} else if d.Recv == nil && d.Name.Name == "main" && p.types.Name() == "main" {
					prog.roots = append(prog.roots, n)
				}
				n.report = reported
				prog.edges(p, n, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						n := prog.node(p.info.Defs[s.Name])
						n.report = reported
						prog.edges(p, n, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if obj := p.info.Defs[id]; obj != nil && id.Name != "_" {
								prog.edges(p, prog.node(obj), s)
							}
						}
						if d.Tok == token.VAR {
							n := &node{}
							prog.roots = append(prog.roots, n)
							prog.edges(p, n, s)
						}
					}
				}
			}
		}
	}
	if p.path == "respat" {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if n := prog.node(scope.Lookup(name)); n != nil && ast.IsExported(name) {
				prog.roots = append(prog.roots, n)
			}
		}
	}
}

// edges records in n every declaration, and the name of every field
// or method, that the code under syntax node x uses.
func (prog *program) edges(p *pkg, n *node, x ast.Node) {
	ast.Inspect(x, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.SelectorExpr:
			n.selects = append(n.selects, x.Sel.Name)
		case *ast.Ident:
			if m := prog.node(p.info.Uses[x]); m != nil && m != n {
				n.uses = append(n.uses, m)
			}
		}
		return true
	})
}

// unreached marks everything the roots reach and returns the reported
// declarations left unmarked.
func (prog *program) unreached() []*node {
	selected := map[string]bool{}
	for name := range stdlibCalled {
		selected[name] = true
	}
	work := append([]*node(nil), prog.roots...)
	for len(work) > 0 {
		for len(work) > 0 {
			n := work[len(work)-1]
			work = work[:len(work)-1]
			if n.reached {
				continue
			}
			n.reached = true
			work = append(work, n.uses...)
			for _, name := range n.selects {
				selected[name] = true
			}
		}
		// A method whose name reached code selects may be called
		// through an interface: it is reached once its type is.
		for _, n := range prog.nodes {
			if !n.reached && n.recv != nil && n.recv.reached && selected[n.obj.Name()] {
				work = append(work, n)
			}
		}
	}
	var out []*node
	for _, n := range prog.nodes {
		if n.report && !n.reached {
			out = append(out, n)
		}
	}
	return out
}
