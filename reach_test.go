package pseudosphere_test

// TestEveryFunctionReached keeps every non-test function in one of two
// bins: reached by one of the programs (the commands under cmd/, the
// examples and the bench/ driver), or named in testdata/reach_allow.txt
// as an oracle or a fixture that tests need and no program runs.
// Anything else is surface nothing needs, and is deleted.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const allowList = "testdata/reach_allow.txt"

func TestEveryFunctionReached(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every program without inlining")
	}
	reached := programSymbols(t)
	declared := declaredFuncs(t)
	allowed := readAllowList(t)

	var missing []string
	for name, lines := range declared {
		if !isReached(reached, name) && allowed[name] == "" {
			missing = append(missing, fmt.Sprintf("%s (%d lines)", name, lines))
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("no program reaches %s: call it from one, list it in %s as an oracle or fixture, or delete it", m, allowList)
	}
	for name, kind := range allowed {
		switch {
		case declared[name] == 0:
			t.Errorf("%s lists %s, which is not declared outside tests", allowList, name)
		case isReached(reached, name):
			// Which methods the linker keeps for interface calls differs
			// between Go releases, so a listed function that a program
			// happens to reach is only reported.
			t.Logf("listed %s %s is reached by a program", kind, name)
		}
	}
}

// programSymbols builds every program with inlining off, so that each
// function a program can call keeps its own symbol, and returns the
// module's text symbols with generic instantiations folded together.
func programSymbols(t *testing.T) map[string]bool {
	bin := t.TempDir() + string(filepath.Separator)
	for _, b := range []struct{ dir, pkgs string }{{".", "./cmd/... ./examples/..."}, {"bench", "."}} {
		cmd := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", bin}, strings.Fields(b.pkgs)...)...)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s in %s: %v\n%s", b.pkgs, b.dir, err, out)
		}
	}
	progs, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	syms := map[string]bool{}
	for _, p := range progs {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, p.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", p.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") && strings.HasPrefix(f[2], "pseudosphere/") {
				syms[stripTypeArgs(f[2])] = true
			}
		}
	}
	if len(syms) == 0 {
		t.Fatal("no pseudosphere text symbols in the programs")
	}
	return syms
}

// stripTypeArgs drops every bracketed type-argument list from a symbol.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// isReached reports whether a program has name's symbol. A value method
// a program calls only through its pointer wrapper counts as reached.
func isReached(syms map[string]bool, name string) bool {
	if syms[name] {
		return true
	}
	i := strings.LastIndex(name, "/")
	parts := strings.Split(name[i+1:], ".")
	if len(parts) != 3 || strings.HasPrefix(parts[1], "(") {
		return false
	}
	return syms[name[:i+1]+parts[0]+".(*"+parts[1]+")."+parts[2]]
}

// declaredFuncs returns the linker name of every function and method
// declared in a non-test file outside bench/ and testdata/, with its
// length in lines from signature to closing brace. Main packages and
// init functions are skipped.
func declaredFuncs(t *testing.T) map[string]int {
	decls := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil || f.Name.Name == "main" {
			return err
		}
		pkg := "pseudosphere"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				name = pkg + "." + receiver(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls[name] = fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// receiver renders a method's receiver type as the linker names it: T
// or (*T), without type parameters.
func receiver(e ast.Expr) string {
	star := false
	if s, ok := e.(*ast.StarExpr); ok {
		star, e = true, s.X
	}
	switch g := e.(type) {
	case *ast.IndexExpr:
		e = g.X
	case *ast.IndexListExpr:
		e = g.X
	}
	name := e.(*ast.Ident).Name
	if star {
		return "(*" + name + ")"
	}
	return name
}

// readAllowList maps each listed linker name to its kind. Each line is
// a name, then "oracle:" or "fixture:", then the reason; blank lines
// and lines starting with # are skipped.
func readAllowList(t *testing.T) map[string]string {
	f, err := os.Open(allowList)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 || (fields[1] != "oracle:" && fields[1] != "fixture:") {
			t.Errorf("%s:%d: want \"<name> oracle: <reason>\" or \"<name> fixture: <reason>\", got %q", allowList, n, line)
			continue
		}
		if allowed[fields[0]] != "" {
			t.Errorf("%s:%d: %s listed twice", allowList, n, fields[0])
		}
		allowed[fields[0]] = strings.TrimSuffix(fields[1], ":")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allowed
}
