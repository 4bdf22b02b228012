package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"memtis/internal/sim"
)

// cell is one simulated cell of a round.
type cell struct {
	label string
	res   sim.Result
	value float64       // the figure's normalised value (fig5-matrix), else 0
	dur   time.Duration // host time of the cell, traced rounds only
	err   error         // panic inside the cell
}

// digest fingerprints everything the cell computed: every field of
// sim.Result (Series, Counters and Tenants included) and the
// normalised value. JSON spells floats in their shortest exact form,
// so equal results give equal digests.
func (c cell) digest() string {
	b, err := json.Marshal(struct {
		Label  string
		Value  float64
		Result sim.Result
	}{c.label, c.value, c.res})
	if err != nil {
		return "unencodable: " + err.Error()
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// digestFile is the on-disk form of one workload's recorded digests:
// for each seed, the digest of every cell in label order, valid only
// at the recorded per-cell access budget.
type digestFile struct {
	Workload string              `json:"workload"`
	Accesses uint64              `json:"accesses"`
	Cells    []string            `json:"cells"`
	Seeds    map[string][]string `json:"seeds"`
}

//go:embed digests/*.json
var digestFS embed.FS

// recordedDigests returns the recorded digests of a workload's cells
// at seed, if the benchmark ships them for this seed and budget.
func recordedDigests(workload string, accesses uint64, labels []string, seed int64) ([]string, bool, error) {
	raw, err := digestFS.ReadFile("digests/" + workload + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var f digestFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, false, fmt.Errorf("digests/%s.json: %w", workload, err)
	}
	if f.Accesses != accesses {
		return nil, false, nil
	}
	if len(f.Cells) != len(labels) {
		return nil, false, fmt.Errorf("digests/%s.json lists %d cells, the workload runs %d", workload, len(f.Cells), len(labels))
	}
	for i, l := range labels {
		if f.Cells[i] != l {
			return nil, false, fmt.Errorf("digests/%s.json: cell %d is %q, the workload runs %q", workload, i, f.Cells[i], l)
		}
	}
	d, ok := f.Seeds[strconv.FormatInt(seed, 10)]
	if ok && len(d) != len(labels) {
		return nil, false, fmt.Errorf("digests/%s.json: seed %d has %d digests for %d cells", workload, seed, len(d), len(labels))
	}
	return d, ok, nil
}

// digestDir is where -record writes, relative to the repository root.
const digestDir = "perfbench/digests"

// recordDigests runs one untraced round at each of seeds 0..n-1 and
// writes the cells' digests to digestDir/<workload>.json. Run it only
// on code whose simulated results are known good: the file becomes the
// reference every later run is checked against.
func recordDigests(def *workloadDef, sz sizes, n int) error {
	var f *digestFile
	for s := 0; s < n; s++ {
		p, err := def.prepare(int64(s), sz)
		if err != nil {
			return fmt.Errorf("%s seed %d: set-up: %w", def.name, s, err)
		}
		if f == nil {
			f = &digestFile{Workload: def.name, Accesses: p.cellBudget, Cells: p.labels, Seeds: map[string][]string{}}
		}
		cells, err := p.round(defaultWorkers(), false)
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", def.name, s, err)
		}
		ds := make([]string, len(cells))
		for i, c := range cells {
			if c.err == nil {
				c.err = p.check(c)
			}
			if c.err != nil {
				return fmt.Errorf("%s seed %d: cell %s: %w", def.name, s, c.label, c.err)
			}
			ds[i] = c.digest()
		}
		f.Seeds[strconv.Itoa(s)] = ds
	}
	return writeDigestFile(filepath.Join(digestDir, def.name+".json"), f)
}

// writeDigestFile writes f as JSON with one seed per line, so that a
// re-recording shows in a diff as the seeds it changed.
func writeDigestFile(path string, f *digestFile) error {
	var b bytes.Buffer
	head, err := json.Marshal(struct {
		Workload string   `json:"workload"`
		Accesses uint64   `json:"accesses"`
		Cells    []string `json:"cells"`
	}{f.Workload, f.Accesses, f.Cells})
	if err != nil {
		return err
	}
	b.Write(head[:len(head)-1])
	b.WriteString(",\n\"seeds\": {")
	keys := sortedKeys(f.Seeds)
	sort.Slice(keys, func(i, j int) bool {
		return len(keys[i]) < len(keys[j]) || (len(keys[i]) == len(keys[j]) && keys[i] < keys[j])
	})
	for i, k := range keys {
		line, err := json.Marshal(f.Seeds[k])
		if err != nil {
			return err
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "\n%q: %s", k, line)
	}
	b.WriteString("\n}}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}
