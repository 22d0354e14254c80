package experiments

import (
	"embed"
	"fmt"

	"realisticfd/internal/scenario"
)

// The E-tables are generated from the checked-in scenario files: each
// generator loads its base spec here and applies only the table's row
// axis (crash counts, oracle, network) before compiling. The files are
// therefore the authoritative experiment configurations — anything not
// varied by a row lives in JSON, not in Go.
//
//go:embed testdata/scenarios/*.json
var scenarioFiles embed.FS

// baseSpec loads one embedded scenario file by name ("E1", "E4",
// "E8-rotating", ...). The embedded files are validated on load, so a
// broken checked-in spec fails every experiment loudly.
func baseSpec(name string) scenario.Spec {
	data, err := scenarioFiles.ReadFile("testdata/scenarios/" + name + ".json")
	if err != nil {
		panic(fmt.Sprintf("experiments: no embedded scenario %q: %v", name, err))
	}
	s, err := scenario.Parse(data)
	if err != nil {
		panic(fmt.Sprintf("experiments: embedded scenario %q: %v", name, err))
	}
	return s
}

// crashSpecs schedules the first crashes processes to fail, process
// i+1 at times[i] — the row axis most tables sweep.
func crashSpecs(crashes int, times ...int64) []scenario.CrashSpec {
	if crashes > len(times) {
		crashes = len(times)
	}
	specs := make([]scenario.CrashSpec, 0, crashes)
	for i := 0; i < crashes; i++ {
		specs = append(specs, scenario.CrashSpec{Process: i + 1, At: times[i]})
	}
	return specs
}

// healingNetSpec is the loss-free faulty-link plan used where liveness
// is still asserted: bounded extra delay plus a partition that heals,
// so every message is eventually delivered (condition (5) of §2.4
// holds within the horizon). It needs schema scenario.SchemaV3.
func healingNetSpec() []scenario.ActionSpec {
	return []scenario.ActionSpec{
		{At: 0, Action: "delay", Bound: 6},
		{At: 40, Action: "cut", Side: []int{1, 2}},
		{At: 400, Action: "heal"},
	}
}
