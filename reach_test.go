package qcongest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names declarations the reachability pass may report,
// keyed "import/path.Name" or "import/path.Type.Method", each with the
// reason it stays in non-test code.
var reachAllowlist = map[string]string{}

// TestNoTestOnlyDeclarations fails when a package-level declaration of this
// module is reachable from no program and no public API: code that only
// tests call belongs in a _test.go file. The roots are every main and init
// function (in this module and in the bench/ module, whose programs run
// the library), every blank `var _` assertion, every exported identifier of
// this facade package and every exported method of a type the facade
// names. A method is reached when reached code references it directly, or
// when its receiver type is reached and an interface declares its name.
func TestNoTestOnlyDeclarations(t *testing.T) {
	var pkgs []*listedPackage
	for _, dir := range []string{".", "bench"} {
		listed, err := goList(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, listed...)
	}
	r, err := newReach(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	var unreached []string
	for _, d := range r.decls {
		if r.reached[d.obj] || d.pkg.Module.Path != "qcongest" || reachAllowlist[d.key()] != "" {
			continue
		}
		pos := r.fset.Position(d.obj.Pos())
		rel, err := filepath.Rel(r.root, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		unreached = append(unreached, fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), pos.Line, d.name()))
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d declarations are reached only by tests (delete them or move them to a _test.go file):\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}
}

// listedPackage is the part of `go list -json` output the pass reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Module     struct{ Path string }

	files []*ast.File
	types *types.Package
	info  *types.Info
}

func goList(dir string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// decl is one package-level declaration: a function, method, type, var or
// const.
type decl struct {
	pkg  *listedPackage
	obj  types.Object
	node ast.Node // the FuncDecl, TypeSpec or ValueSpec it is declared by
}

func (d decl) name() string {
	if fn, ok := d.obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			return receiverName(recv.Type()).Name() + "." + fn.Name()
		}
	}
	return d.obj.Name()
}

func (d decl) key() string { return d.pkg.ImportPath + "." + d.name() }

func receiverName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}

type reach struct {
	root    string
	fset    *token.FileSet
	pkgs    map[string]*listedPackage
	std     types.Importer
	decls   []decl
	byObj   map[types.Object]decl
	methods map[*types.TypeName][]*types.Func
	iface   map[string]bool // method names some interface declares
	reached map[types.Object]bool
	queue   []types.Object
}

func newReach(listed []*listedPackage) (*reach, error) {
	r := &reach{
		fset:    token.NewFileSet(),
		pkgs:    map[string]*listedPackage{},
		std:     importer.Default(),
		byObj:   map[types.Object]decl{},
		methods: map[*types.TypeName][]*types.Func{},
		iface:   map[string]bool{"Error": true},
		reached: map[types.Object]bool{},
	}
	for _, p := range listed {
		r.pkgs[p.ImportPath] = p
		if p.ImportPath == "qcongest" {
			r.root = p.Dir
		}
	}
	for _, p := range listed {
		if err := r.check(p); err != nil {
			return nil, err
		}
	}
	for _, p := range listed {
		r.collect(p)
	}
	for _, p := range listed {
		r.addRoots(p)
	}
	for len(r.queue) > 0 {
		obj := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.visit(obj)
	}
	return r, nil
}

// Import type-checks module packages from source and reads the standard
// library's export data.
func (r *reach) Import(path string) (*types.Package, error) {
	p, ok := r.pkgs[path]
	if !ok {
		return r.std.Import(path)
	}
	if err := r.check(p); err != nil {
		return nil, err
	}
	return p.types, nil
}

func (r *reach) check(p *listedPackage) error {
	if p.types != nil {
		return nil
	}
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(r.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: r}
	tp, err := conf.Check(p.ImportPath, r.fset, p.files, p.info)
	if err != nil {
		return fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
	}
	p.types = tp
	return nil
}

// collect records p's declarations, its methods by receiver type and the
// method names its interfaces (and those of the packages it imports)
// declare.
func (r *reach) collect(p *listedPackage) {
	add := func(id *ast.Ident, node ast.Node) {
		if id.Name == "_" {
			return
		}
		obj := p.info.Defs[id]
		d := decl{pkg: p, obj: obj, node: node}
		r.decls = append(r.decls, d)
		r.byObj[obj] = d
		if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
			tn := receiverName(fn.Signature().Recv().Type())
			r.methods[tn] = append(r.methods[tn], fn)
		}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, id := range m.Names {
						r.iface[id.Name] = true
					}
				}
			}
			return true
		})
	}
	for _, imp := range p.types.Imports() {
		if _, ok := r.pkgs[imp.Path()]; ok {
			continue
		}
		scope := imp.Scope()
		for _, name := range scope.Names() {
			if it, ok := scope.Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					r.iface[it.Method(i).Name()] = true
				}
			}
		}
	}
}

func (r *reach) addRoots(p *listedPackage) {
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "init" || (p.Name == "main" && d.Name.Name == "main")) {
					r.mark(p.info.Defs[d.Name])
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if s, ok := spec.(*ast.ValueSpec); ok && len(s.Names) == 1 && s.Names[0].Name == "_" {
						r.refs(p, s)
					}
				}
			}
		}
	}
	if p.ImportPath != "qcongest" {
		return
	}
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		r.mark(obj)
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
			r.mark(named.Origin().Obj())
			for _, m := range r.methods[named.Origin().Obj()] {
				if m.Exported() {
					r.mark(m)
				}
			}
		}
	}
}

func (r *reach) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if _, ok := r.byObj[obj]; !ok || r.reached[obj] {
		return
	}
	r.reached[obj] = true
	r.queue = append(r.queue, obj)
}

// visit marks what a reached declaration references, a method's receiver
// type, and a type's methods whose names some interface declares.
func (r *reach) visit(obj types.Object) {
	d := r.byObj[obj]
	r.refs(d.pkg, d.node)
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		r.mark(receiverName(fn.Signature().Recv().Type()))
	}
	if tn, ok := obj.(*types.TypeName); ok {
		for _, m := range r.methods[tn] {
			if r.iface[m.Name()] {
				r.mark(m)
			}
		}
	}
}

func (r *reach) refs(p *listedPackage, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.info.Uses[id]; obj != nil {
				r.mark(obj)
			}
		}
		return true
	})
}
