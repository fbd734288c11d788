package eventpf_test

import (
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"
)

var (
	docCode = regexp.MustCompile("`[^`\n]+`")
	// pkg.Name, pkg.Type.Field, … — checked when pkg is a directory of internal/.
	docQualified = regexp.MustCompile(`\b([a-z][a-z0-9]*)((?:\.[A-Za-z_][A-Za-z0-9_]*)+)`)
	docPath      = regexp.MustCompile(`\b(?:internal|cmd|examples|docs)/[A-Za-z0-9_*./-]*`)
)

// packageIdents returns every identifier token in the Go files of dir.
func packageIdents(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	idents := map[string]bool{}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		var s scanner.Scanner
		s.Init(fset.AddFile(name, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT {
				idents[lit] = true
			}
		}
	}
	return idents
}

// TestDocsNameWhatExists reads the code spans of README.md, DESIGN.md and
// docs/*.md: a `pkg.Name` whose pkg is the root package eventpf or a package
// under internal/ must name identifiers that package's sources still use,
// and a path under internal/, cmd/, examples/ or docs/ must exist. A name
// that outlives its code fails here, in the PR that deletes the code.
func TestDocsNameWhatExists(t *testing.T) {
	docs, _ := filepath.Glob("docs/*.md")
	docs = append(docs, "README.md", "DESIGN.md")
	idents := map[string]map[string]bool{}
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range docCode.FindAllString(string(text), -1) {
			for _, m := range docQualified.FindAllStringSubmatch(span, -1) {
				dir := filepath.Join("internal", m[1])
				if m[1] == "eventpf" {
					dir = "."
				}
				if st, err := os.Stat(dir); err != nil || !st.IsDir() || m[2] == ".go" {
					continue // not a package, or a file name such as eventpf.go
				}
				if idents[dir] == nil {
					idents[dir] = packageIdents(t, dir)
				}
				for _, name := range strings.Split(m[2][1:], ".") {
					if !idents[dir][name] {
						t.Errorf("%s: %s names %q, which no file of %s uses", doc, span, name, dir)
					}
				}
			}
			for _, p := range docPath.FindAllString(span, -1) {
				p = strings.TrimRight(strings.TrimSuffix(p, "..."), "./")
				if found, _ := filepath.Glob(p); len(found) == 0 {
					t.Errorf("%s: %s names the path %q, which does not exist", doc, span, p)
				}
			}
		}
	}
}

// TestChangesLinesShort holds CHANGES.md to the rule its header states: one
// line per change (or finding), at most 600 characters. The detail belongs in
// the commit message.
func TestChangesLinesShort(t *testing.T) {
	const limit = 600
	text, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(text), "\n") {
		if n := utf8.RuneCountInString(line); n > limit {
			t.Errorf("CHANGES.md:%d holds %d characters, more than %d", i+1, n, limit)
		}
	}
}
