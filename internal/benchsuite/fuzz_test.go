package benchsuite

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParse feeds Parse arbitrary suites files. It must not panic. When
// it accepts a file, the file expands to at most MaxConfigs
// configurations with unique names, and Parse(String()) expands to the
// same configurations, the round trip String's doc promises.
func FuzzParse(f *testing.F) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "benchsuites.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committed)
	f.Add([]byte(sampleDoc))
	f.Add(blowUpDoc())
	f.Add([]byte(`{"suites": [{"name": "s", "processes": ["sequential"], "graphs": ["complete:8"]}]} {"x": 1}`))
	f.Add([]byte(`{"suites": [{"name": "s", "processes": ["sequential"], "graphs": ["complete:8"], "options": [{"capacities": []}]}]}`))
	f.Add([]byte(`{"suites": [{"name": "s", "processes": ["sequential"], "graphs": ["complete:8"], "options": []}]}`))
	f.Add([]byte(`{"suites": [{"name": "s", "processes": ["sequential"], "graphs": ["complete:8"`))
	f.Add([]byte(`{"defaults": {"samples": -1}, "suites": [{"name": "s", "processes": ["lazy-sequential"], "graphs": ["wcomplete:9,-0.5"]}]}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Parse(data)
		if err != nil {
			return
		}
		cfgs := file.Configs(false)
		if len(cfgs) > MaxConfigs {
			t.Fatalf("accepted a file of %d configurations, over the bound %d", len(cfgs), MaxConfigs)
		}
		seen := map[string]bool{}
		for _, c := range cfgs {
			if seen[c.Name] {
				t.Fatalf("accepted a duplicate configuration %q", c.Name)
			}
			seen[c.Name] = true
		}
		back, err := Parse([]byte(file.String()))
		if err != nil {
			t.Fatalf("reparsing String output: %v\n%s", err, file.String())
		}
		if got := back.Configs(false); !reflect.DeepEqual(got, cfgs) {
			t.Fatalf("Parse(String()) expands to\n%+v\nwant\n%+v", got, cfgs)
		}
	})
}
