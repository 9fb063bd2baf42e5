// Command deadapi reports every exported identifier of an internal/
// package — a package-level name, a method or a struct field — that no
// non-test file uses. Such an identifier goes, moves into its package's
// export_test.go, or gets a line with its reason in the allowlist.
//
// It type-checks the non-test files of every package `go list -deps ./...`
// names in each module root given (the standard library through the
// compiler's export data). A use is any reference from those files; a
// method is also used when its receiver implements an interface of those
// packages that declares it (io.ByteReader's ReadByte); a field is also
// used when it has a json tag or its struct is built by an unkeyed literal.
//
//	go run ./ci/deadapi -allow ci/deadapi/allow.txt . benchmark
//
// It prints file:line and name of each unused identifier, and each
// allowlist line that names no unused one, and exits 1 if it printed any.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

func main() {
	allowPath := flag.String("allow", "", "allowlist: one identifier and its reason a line")
	flag.Parse()
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	allow, err := readAllow(*allowPath)
	if err == nil {
		var dead []finding
		if dead, err = check(roots); err == nil {
			if n := report(os.Stdout, dead, allow); n > 0 {
				fmt.Printf("deadapi: %d problem(s): delete the identifier, move it into its package's export_test.go, or allowlist it in %s with a reason\n", n, *allowPath)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintln(os.Stderr, "deadapi:", err)
	os.Exit(2)
}

// finding is one exported identifier without a non-test use.
type finding struct {
	pos  token.Position
	name string // module-relative package path and identifier: internal/core.Runtime.Prefetch
}

// report prints every finding the allowlist does not name and every
// allowlist line that names no finding, and returns how many it printed.
func report(w io.Writer, dead []finding, allow map[string]string) int {
	n := 0
	found := map[string]bool{}
	wd, _ := os.Getwd() // without it Rel fails and the absolute path is printed
	for _, f := range dead {
		found[f.name] = true
		if _, ok := allow[f.name]; !ok {
			pos, err := filepath.Rel(wd, f.pos.Filename)
			if err != nil {
				pos = f.pos.Filename
			}
			fmt.Fprintf(w, "%s:%d: %s is exported but no non-test file uses it\n", pos, f.pos.Line, f.name)
			n++
		}
	}
	var stale []string
	for name := range allow {
		if !found[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		fmt.Fprintf(w, "allowlist: %s is used or gone; drop its line\n", name)
		n++
	}
	return n
}

// readAllow parses the allowlist: an identifier and a reason a line, blank
// lines and lines starting with # skipped.
func readAllow(path string) (map[string]string, error) {
	allow := map[string]string{}
	if path == "" {
		return allow, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		if _, dup := allow[name]; dup || strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s is listed twice or has no reason", path, line, name)
		}
		allow[name] = reason
	}
	return allow, sc.Err()
}

// listed is the part of `go list -json` output the check reads.
type listed struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
	Module                  *struct{ Path string }
}

// errorsProtocol declares the interfaces package errors asserts inside its
// functions, where no package scope shows them.
const errorsProtocol = `package p
type (
	unwrap  interface{ Unwrap() error }
	unwrapN interface{ Unwrap() []error }
	is      interface{ Is(error) bool }
	as      interface{ As(any) bool }
)`

// check type-checks the modules rooted at roots and returns the exported
// internal/ identifiers none of their non-test files use, in file order.
func check(roots []string) ([]finding, error) {
	pkgs := map[string]*listed{}
	var order []string
	for _, root := range roots {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
		cmd.Dir, cmd.Stderr = root, os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", root, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			p := new(listed)
			if err := dec.Decode(p); err != nil {
				return nil, err
			}
			if pkgs[p.ImportPath] == nil {
				pkgs[p.ImportPath] = p
				order = append(order, p.ImportPath)
			}
		}
	}

	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if p := pkgs[path]; p != nil {
			return os.Open(p.Export)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	type source struct {
		rel   string // import path relative to its module
		pkg   *types.Package
		info  *types.Info
		files []*ast.File
	}
	sources := map[string]*source{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		p := pkgs[path]
		if p == nil || p.Standard {
			return gc.Import(path)
		}
		if s := sources[path]; s != nil {
			return s.pkg, nil
		}
		s := &source{
			rel:  strings.TrimPrefix(strings.TrimPrefix(path, p.Module.Path), "/"),
			info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}},
		}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			s.files = append(s.files, f)
		}
		var err error
		if s.pkg, err = (&types.Config{Importer: imp}).Check(path, fset, s.files, s.info); err != nil {
			return nil, err
		}
		sources[path] = s
		return s.pkg, nil
	}

	// Every interface a call may go through, by method name: those of
	// every package's scope, those written inline in the modules, error
	// and the errors package's protocol.
	byMethod := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
			}
		}
	}
	addScope := func(pkg *types.Package) {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	f, err := parser.ParseFile(fset, "errors-protocol", errorsProtocol, 0)
	if err != nil {
		return nil, err
	}
	protocol, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	addScope(protocol)
	for _, path := range order {
		if path == "unsafe" {
			continue
		}
		pkg, err := imp(path)
		if err != nil {
			return nil, err
		}
		addScope(pkg)
	}

	used := map[types.Object]bool{}
	for _, s := range sources {
		for _, obj := range s.info.Uses {
			used[origin(obj)] = true
		}
		for _, tv := range s.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		for _, f := range s.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.CompositeLit); ok && len(lit.Elts) > 0 {
					st, isStruct := s.info.Types[lit].Type.Underlying().(*types.Struct)
					if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); isStruct && !keyed {
						for i := 0; i < st.NumFields(); i++ {
							used[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
		}
	}

	var dead []finding
	flag := func(obj types.Object, name string) {
		if obj.Exported() && !used[obj] {
			dead = append(dead, finding{fset.Position(obj.Pos()), name})
		}
	}
	for _, s := range sources {
		if !strings.HasPrefix(s.rel, "internal/") && !strings.Contains(s.rel, "/internal/") {
			continue
		}
		for _, name := range s.pkg.Scope().Names() {
			obj := s.pkg.Scope().Lookup(name)
			prefix := s.rel + "." + name + "."
			flag(obj, s.rel+"."+name)
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || named.Obj() != obj {
				continue // not a type, or an alias
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); !reachable(named, m.Name(), byMethod) {
					flag(m, prefix+m.Name())
				}
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if _, ok := reflect.StructTag(u.Tag(i)).Lookup("json"); !ok {
						flag(u.Field(i), prefix+u.Field(i).Name())
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if m := u.ExplicitMethod(i); !reachable(named, m.Name(), byMethod) {
						flag(m, prefix+m.Name())
					}
				}
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	return dead, nil
}

// reachable reports whether T or *T implements an interface, other than
// T itself, that declares the method: a call through it may reach T's.
func reachable(named *types.Named, method string, byMethod map[string][]*types.Interface) bool {
	for _, it := range byMethod[method] {
		if !types.Identical(it, named.Underlying()) &&
			(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
