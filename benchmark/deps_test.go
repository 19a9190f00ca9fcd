package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestImports keeps the benchmark self-contained: the standard library,
// the root wflocks API and internal/serve, nothing else. Later refactors
// of the repo's own harness (internal/bench, loadgen, stats, obs) must
// not be able to move the ruler.
func TestImports(t *testing.T) {
	allowed := map[string]bool{"wflocks": true, "wflocks/internal/serve": true}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files found: %v", err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			std := !strings.Contains(strings.SplitN(path, "/", 2)[0], ".") && !strings.HasPrefix(path, "wflocks")
			if !std && !allowed[path] {
				t.Errorf("%s imports %s; the benchmark may import only the standard library, wflocks and wflocks/internal/serve", file, path)
			}
		}
	}
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(mod), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "require" && fields[1] != "wflocks" {
			t.Errorf("go.mod requires %s; the benchmark may require only wflocks", fields[1])
		}
	}
}
