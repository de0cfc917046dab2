package repro_test

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMakeFuzzRunsEveryFuzzTarget keeps `make fuzz` in step with the
// tree: every func Fuzz* in a _test.go file needs a line in the
// Makefile's fuzz target, and every line there must name a target that
// exists in the package it runs.
func TestMakeFuzzRunsEveryFuzzTarget(t *testing.T) {
	inTree := map[string]bool{} // "dir FuzzName"
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w*)\(\w+ \*testing\.F\)`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			inTree[filepath.ToSlash(filepath.Dir(path))+" "+string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inMake := map[string]bool{}
	line := regexp.MustCompile(`-fuzz='?\^?(Fuzz\w*)(?:\$\$)?'?\s.*\s\./(\S+?)/?$`)
	inTarget := false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		text := sc.Text()
		switch {
		case strings.HasPrefix(text, "fuzz:"):
			inTarget = true
		case inTarget && strings.HasPrefix(text, "\t"):
			m := line.FindStringSubmatch(text)
			if m == nil {
				t.Errorf("Makefile fuzz line not understood: %q", text)
				continue
			}
			inMake[m[2]+" "+m[1]] = true
		default:
			inTarget = false
		}
	}

	var missing, stale []string
	for k := range inTree {
		if !inMake[k] {
			missing = append(missing, k)
		}
	}
	for k := range inMake {
		if !inTree[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("fuzz targets `make fuzz` does not run: %s", strings.Join(missing, ", "))
	}
	if len(stale) > 0 {
		t.Errorf("`make fuzz` lines naming no fuzz target: %s", strings.Join(stale, ", "))
	}
	if len(inTree) == 0 {
		t.Error("found no fuzz targets")
	}
}
