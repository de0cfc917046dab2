package repro_test

import (
	"errors"
	"go/build"
	"io/fs"
	"os"
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
