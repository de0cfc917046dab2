package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// goldenJSON pins, for seed 1 at full size, the digest of every workload
// and of every ladder row. Regenerate with -update-golden — only when a
// change is MEANT to alter simulated behaviour.
//
//go:embed golden.json
var goldenJSON []byte

type goldenEntry struct {
	Digest string            `json:"digest"`
	Events int               `json:"events"`
	Ladder map[string]string `json:"ladder"`
}

const goldenSeed = 1

func loadGolden() map[string]goldenEntry {
	var all map[string]goldenEntry
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		panic("bench: golden.json: " + err.Error())
	}
	return all
}

// goldenFor returns the pinned digests that apply to this run, or nil:
// other seeds and sizes are checked rep against rep instead.
func goldenFor(wl workload, sz size, seed uint64) *goldenEntry {
	if seed != goldenSeed || sz != wl.full {
		return nil
	}
	g, ok := loadGolden()[wl.name]
	if !ok {
		panic("bench: golden.json has no entry for " + wl.name + "; run -update-golden")
	}
	return &g
}

// updateGolden executes every workload and ladder row once at the golden
// seed and rewrites path.
func updateGolden(path string) error {
	all := make(map[string]goldenEntry, len(workloads))
	for _, wl := range workloads {
		s := measure(wl.build(goldenSeed, wl.full, wl.top, nil), false, nil)
		if s.Err != "" {
			return fmt.Errorf("%s: %s", wl.name, s.Err)
		}
		g := goldenEntry{Digest: s.Digest, Events: s.Events, Ladder: make(map[string]string)}
		for level, row := range wl.rows {
			s := measure(wl.build(goldenSeed, wl.full, level, nil), true, nil)
			if s.Err != "" {
				return fmt.Errorf("%s ladder row %s: %s", wl.name, row.name, s.Err)
			}
			if level == wl.top && s.Digest != g.Digest {
				return fmt.Errorf("%s: driver digest %s differs from exp.Execute digest %s", wl.name, s.Digest, g.Digest)
			}
			g.Ladder[row.name] = s.Digest
		}
		fmt.Printf("%-14s %s  %d events\n", wl.name, g.Digest, g.Events)
		all[wl.name] = g
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
