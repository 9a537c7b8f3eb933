package main

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/respct/respct/internal/analysis/directive"
)

// TestRegistrationMatchesKnownAnalyzers pins the registered suite to
// directive.KnownAnalyzers: a directive naming an analyzer allowlint does
// not know about would be flagged as unknown, and a registered analyzer the
// set lacks could never be suppressed.
func TestRegistrationMatchesKnownAnalyzers(t *testing.T) {
	registered := make(map[string]bool, len(Analyzers))
	for _, a := range Analyzers {
		registered[a.Name] = true
	}
	for name := range directive.KnownAnalyzers {
		if !registered[name] {
			t.Errorf("directive.KnownAnalyzers lists %q but cmd/respctvet does not register it", name)
		}
	}
	for name := range registered {
		if !directive.KnownAnalyzers[name] {
			t.Errorf("cmd/respctvet registers %q but directive.KnownAnalyzers does not list it", name)
		}
	}
}

// maxDirectives ratchets the suppression count. The interprocedural facts
// made the flight-ring bypass provable and the budget must only go down:
// every survivor names an obligation the analyzers genuinely cannot prove
// (baselines and transient structures with their own persistence schemes,
// single-line payload+cursor packing, documented recovery-driver reopens).
const maxDirectives = 16

// TestDirectiveBudget counts every //respct:allow directive in the tree
// outside testdata and fails if the count grows past the ratchet.
func TestDirectiveBudget(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	count := 0
	var sites []string
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", ".git", "bin":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if _, _, ok := directive.Parse(c.Text); ok {
					count++
					rel, _ := filepath.Rel(root, path)
					sites = append(sites, rel+": "+c.Text)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count > maxDirectives {
		t.Errorf("tree carries %d //respct:allow directives, ratchet is %d; prove the new finding through flushfact instead of suppressing it, or justify lowering the bar here:\n  %s",
			count, maxDirectives, strings.Join(sites, "\n  "))
	}
	if count < maxDirectives {
		t.Errorf("tree carries %d //respct:allow directives, ratchet is %d: lower maxDirectives so the budget cannot silently regrow", count, maxDirectives)
	}
}
