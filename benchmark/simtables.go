package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"time"

	"realisticfd/internal/experiments"
)

const (
	tablesName = "sim-tables"
	// tablesSeedsPerSecond sizes the campaign like sweepSeedsPerSecond
	// (E1…E9 together run ≈45 seeds/s on the reference box). The
	// campaign runs as tablesPasses equal passes, with a tick of the
	// reference kernel (refclock.go) after every table, and reports the
	// median pass.
	tablesSeedsPerSecond = 40
	tablesPasses         = 15
	// goldenSeeds is the seed count golden_tables.txt was rendered at.
	goldenSeeds = 2
	goldenPath  = "internal/experiments/testdata/golden_tables.txt"
)

// eTables are the nine generators in table order. E9 replays fixed
// estimator configurations and takes no seed count.
var eTables = []struct {
	id  string
	gen func(seeds int) *experiments.Table
}{
	{"E1", experiments.E1Totality},
	{"E2", experiments.E2Adversary},
	{"E3", experiments.E3Reduction},
	{"E4", experiments.E4TRB},
	{"E5", experiments.E5Marabout},
	{"E6", experiments.E6PartialPerfect},
	{"E7", experiments.E7Collapse},
	{"E8", experiments.E8MajorityCrossover},
	{"E9", func(int) *experiments.Table { return experiments.E9QoS() }},
}

// renderHash renders one table and hashes the rendering, the way the
// golden test of internal/experiments does.
func renderHash(t *experiments.Table) string {
	var buf bytes.Buffer
	t.Fprint(&buf)
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// readGolden parses golden_tables.txt: "<id> <sha256>" lines, # comments.
func readGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("golden tables (run from the repository root): %w", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("golden tables: malformed line %q in %s", line, path)
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("golden tables: %w", err)
	}
	return want, nil
}

// goldenMismatches renders every table at goldenSeeds and returns the
// ids whose hash is not the pinned one.
func goldenMismatches() ([]string, error) {
	want, err := readGolden(goldenPath)
	if err != nil {
		return nil, err
	}
	var bad []string
	for _, e := range eTables {
		if renderHash(e.gen(goldenSeeds)) != want[e.id] {
			bad = append(bad, e.id)
		}
	}
	return bad, nil
}

// campaign is tablesPasses renderings of every table, indexed like
// eTables; the passes are identical, so one set of hashes and verdicts
// describes them all.
type campaign struct {
	hashes, verdicts []string
	ms               []float64 // per table, summed over the passes
	pace             *refPacer // one lap per table
	sec              section
}

// renderCampaign renders every table at the given seed count,
// tablesPasses times over; a nil tracer makes it the untraced run.
func renderCampaign(tr *tracer, seeds int, parent int) campaign {
	c := campaign{
		hashes:   make([]string, len(eTables)),
		verdicts: make([]string, len(eTables)),
		ms:       make([]float64, len(eTables)),
		pace:     newRefPacer(tablesPasses * len(eTables)),
	}
	c.sec = measure(func() {
		c.pace.start()
		for pass := 0; pass < tablesPasses; pass++ {
			for i, e := range eTables {
				id := tr.begin(tablesName, "experiments."+strings.ToLower(e.id), parent)
				t0 := time.Now()
				t := e.gen(seeds)
				c.hashes[i] = renderHash(t)
				c.ms[i] += float64(time.Since(t0).Nanoseconds()) / 1e6
				tr.end(id)
				c.verdicts[i] = t.Verdict
				c.pace.lap()
			}
		}
	})
	return c
}

func runSimTables(env *runEnv) (*result, error) {
	res := newResult(tablesName)
	// The generators take a seed count, not a range, so -seed cannot
	// shift the range; an odd seed lengthens it by one instead, which
	// still changes every table's inputs. More would move the per-seed
	// metrics by spreading each pass's fixed costs over more seeds.
	seeds := tablesSeedsPerSecond*env.seconds/tablesPasses + int(env.seed%2)
	experiments.SetWorkers(1)
	defer experiments.SetWorkers(0)

	// Set-up: the golden gate. The file is read at run time, so a
	// legitimate golden update needs no benchmark edit.
	var bad []string
	setup, err := setupSeconds(func() error {
		var err error
		bad, err = goldenMismatches()
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	res.checkN(len(eTables), len(bad), "tables %v at %d seeds do not hash to %s", bad, goldenSeeds, goldenPath)

	root := env.tr.begin(tablesName, "tables.untraced", -1)
	c := renderCampaign(nil, seeds, -1)
	env.tr.end(root)
	for i, e := range eTables {
		v := c.verdicts[i]
		res.check(strings.Contains(v, "✓") && !strings.Contains(v, "✗"), "%s verdict at %d seeds: %s", e.id, seeds, v)
	}
	total := float64(seeds * tablesPasses)
	wall := c.pace.worked()
	res.wall = c.sec.wall
	res.e2e["setup_s"] = setup
	res.e2e["seeds_per_s"] = float64(seeds) / c.pace.refLap(len(eTables))
	res.e2e["allocs_per_seed"] = float64(c.sec.mallocs) / total
	res.e2e["alloc_kb_per_seed"] = float64(c.sec.bytes) / 1024 / total
	res.e2e["cpu_s_per_node_s"] = c.sec.cpu / c.sec.wall
	res.note("%d passes of E1…E9 at %d seeds, workers=1, wall=%.3fs (%.1f seeds per wall second; the metric is the median pass in reference seconds, and the host ran %.2fx slower than the reference), tables digest=%s",
		tablesPasses, seeds, wall, total/wall, c.pace.slowdown(), digestOf(c.hashes))

	if env.tr == nil {
		return res, nil
	}

	root = env.tr.begin(tablesName, "tables.traced", -1)
	traced := renderCampaign(env.tr, seeds, root)
	env.tr.end(root)
	for i, e := range eTables {
		res.check(traced.hashes[i] == c.hashes[i], "%s: traced table hash differs from the untraced one", e.id)
		res.layer["experiments."+strings.ToLower(e.id)+"_ms"] = traced.ms[i]
	}
	res.layer["trace_overhead_ratio"] = traced.pace.worked() / wall

	probeSimEngine(env, res)
	probeFDCheck(env, res)
	probeProtocols(env, res)
	return res, nil
}

// digestOf folds a list of hex hashes into one short fingerprint.
func digestOf(hashes []string) string {
	sum := sha256.Sum256([]byte(strings.Join(hashes, "\n")))
	return hex.EncodeToString(sum[:8])
}
