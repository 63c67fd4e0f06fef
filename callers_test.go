package mistique_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// callerAllowlist names the functions and methods that may stay without a
// caller in the module's non-test code, each with its reason. An entry is
// a function ("pkg.Func"), a method ("pkg.Type.Method"), every method of a
// type ("pkg.Type"), or a whole package ("pkg"). An entry that no longer
// matches an uncalled function is stale
// and fails TestEveryFuncHasACaller, so the list cannot outlive its reason.
var callerAllowlist = map[string]string{
	"mistique.System.ApproxTopKCtx":              "bench/surface.go calls it",
	"mistique/internal/colstore.Store.GetColumn": "bench/surface.go calls it",
	"mistique/internal/colstore.Store.Lookup":    "bench/surface.go calls it",
	"mistique/internal/server.Server.Handler":    "bench/surface.go calls it",
	"mistique/client.Client.ApproxTopK":          "bench/surface.go calls it",
	"mistique/client.WithHTTPClient":             "bench/surface.go calls it",
	"mistique/internal/cas.OpenStore":            "bench/surface.go calls it",
	"mistique/internal/cas":                      "the chunk store bench/ drives; the engine no longer calls it",
	"mistique/internal/nn.Network.SaveWeights":   "the MQNN checkpoint format that ROADMAP item 12 persists a network in; no program writes one yet",
	"mistique/internal/nn.Network.LoadWeights":   "the MQNN checkpoint format that ROADMAP item 12 persists a network in; no program writes one yet",
	"mistique/internal/faultfs.Injector":         "the fault injector the crash-matrix tests of eight packages share",
	"mistique/internal/faultfs.NewInjector":      "the fault injector the crash-matrix tests of eight packages share",
}

// implicitMethods are methods the standard library calls through its own
// interfaces (fmt, errors, net/http, encoding/json, sort, container/heap,
// io), so no selection in the module's code shows their caller.
var implicitMethods = []string{
	"String", "Error", "Unwrap", "Is", "As", "Format",
	"ServeHTTP", "MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
	"Len", "Less", "Swap", "Push", "Pop",
	"Read", "Write", "Close",
}

// declared is one top-level function or method of the module.
type declared struct {
	name       string // import path, receiver type name if any, and name, joined by "."
	pkg        string
	recv       string
	short      string // the name alone
	pos, end   token.Pos
	file       string
	line, size int
}

// moduleLoader type-checks the module's non-test packages from source,
// handing every other import to the standard library's source importer.
type moduleLoader struct {
	fset   *token.FileSet
	root   string
	module string
	std    types.Importer
	pkgs   map[string]*types.Package
	files  map[string][]*ast.File
	infos  map[string]*types.Info
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[path], l.infos[path] = p, files, info
	return p, nil
}

// loadModule type-checks every non-test package under root except bench/,
// which is its own module, and testdata directories.
func loadModule(root string) (*moduleLoader, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
		}
	}
	fset := token.NewFileSet()
	l := &moduleLoader{
		fset: fset, root: root, module: module,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		infos: map[string]*types.Info{},
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		name := d.Name()
		if rel != "." && (rel == "bench" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		imp := module
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		if _, err := l.Import(imp); err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		return nil
	})
	return l, err
}

// uncalledFuncs lists the module's top-level functions and methods that
// no non-test code calls. A function counts as called when an identifier
// outside its own declaration refers to it. A method also counts when any
// code selects a method of that name, since the call may go through an
// interface, or when the standard library calls it (implicitMethods).
// main and init always count.
func uncalledFuncs(l *moduleLoader) []declared {
	var decls []declared
	byFunc := map[*types.Func]int{}
	for path, files := range l.files {
		info := l.infos[path]
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				recv := ""
				if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
					t := sig.Recv().Type()
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					recv = t.(*types.Named).Obj().Name()
				}
				name := path + "." + fd.Name.Name
				if recv != "" {
					name = path + "." + recv + "." + fd.Name.Name
				}
				start, end := fd.Pos(), fd.End()
				if fd.Doc != nil {
					start = fd.Doc.Pos()
				}
				from, to := l.fset.Position(start), l.fset.Position(end)
				byFunc[fn] = len(decls)
				decls = append(decls, declared{
					name: name, pkg: path, recv: recv, short: fd.Name.Name, pos: fd.Pos(), end: fd.End(),
					file: from.Filename, line: from.Line, size: to.Line - from.Line + 1,
				})
			}
		}
	}
	called := make([]bool, len(decls))
	dispatched := map[string]bool{}
	for _, m := range implicitMethods {
		dispatched[m] = true
	}
	for _, info := range l.infos {
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if i, ok := byFunc[fn.Origin()]; ok && (id.Pos() < decls[i].pos || id.Pos() >= decls[i].end) {
				called[i] = true
			}
		}
		for _, sel := range info.Selections {
			if sel.Kind() != types.FieldVal {
				dispatched[sel.Obj().Name()] = true
			}
		}
	}
	var out []declared
	for i, d := range decls {
		switch {
		case called[i], d.short == "init", d.short == "main" && d.recv == "",
			d.recv != "" && dispatched[d.short]:
			continue
		}
		out = append(out, d)
	}
	slices.SortFunc(out, func(a, b declared) int { return strings.Compare(a.name, b.name) })
	return out
}

// allowedBy returns the allowlist entry that covers d, or "".
func allowedBy(d declared) string {
	for _, key := range []string{d.name, d.pkg + "." + d.recv, d.pkg} {
		if _, ok := callerAllowlist[key]; ok {
			return key
		}
	}
	return ""
}

// TestEveryFuncHasACaller fails on a top-level function or method that no
// program, example or non-test package calls, and on an allowlist entry
// that covers nothing any more. Test-support packages (import paths
// ending in "test") are exempt; their calls into other packages count.
func TestEveryFuncHasACaller(t *testing.T) {
	l, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, d := range uncalledFuncs(l) {
		if strings.HasSuffix(d.pkg, "test") {
			continue
		}
		if key := allowedBy(d); key != "" {
			used[key] = true
			continue
		}
		t.Errorf("%s (%s:%d, %d lines) has no caller: delete it, or give it a program caller", d.name, d.file, d.line, d.size)
	}
	for key, reason := range callerAllowlist {
		if !used[key] {
			t.Errorf("allowlist entry %s (%s) covers no uncalled function: remove it", key, reason)
		}
	}
}
