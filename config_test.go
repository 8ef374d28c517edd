package dco_test

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"dco/internal/chordkern"
	"dco/internal/churn"
	"dco/internal/core"
	"dco/internal/health"
	"dco/internal/kademlia"
	"dco/internal/live"
	"dco/internal/overlay"
	"dco/internal/retry"
)

// TestConfigTableMatchesDesign keeps every settable struct of the live stack
// and the simulator and DESIGN.md's "Configuration" tables in step, a row
// per field and a field per row: a knob — of live.Config, of a sub-package
// struct the node fills, or of a simulator config — cannot land without a
// row saying who sets it to something other than its default.
func TestConfigTableMatchesDesign(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Configuration\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "Configuration" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	tables := regexp.MustCompile(`\n###+ `).Split(section, -1)
	row := regexp.MustCompile("(?m)^\\| `(\\w+)` \\|")
	for _, typ := range []reflect.Type{
		reflect.TypeOf(live.Config{}),
		reflect.TypeOf(retry.Policy{}),
		reflect.TypeOf(health.CircuitConfig{}),
		reflect.TypeOf(chordkern.Config{}),
		reflect.TypeOf(kademlia.Config{}),
		reflect.TypeOf(core.Config{}),
		reflect.TypeOf(core.HierarchyConfig{}),
		reflect.TypeOf(overlay.Config{}),
		reflect.TypeOf(churn.Config{}),
	} {
		heading := "`" + typ.String() + "`\n"
		i := slices.IndexFunc(tables, func(s string) bool { return strings.HasPrefix(s, heading) })
		if i < 0 {
			t.Errorf("DESIGN.md's Configuration section has no heading %s", heading)
			continue
		}
		rows := make(map[string]bool)
		for _, m := range row.FindAllStringSubmatch(tables[i], -1) {
			rows[m[1]] = true
		}
		for f := 0; f < typ.NumField(); f++ {
			name := typ.Field(f).Name
			if !rows[name] {
				t.Errorf("%s.%s has no row in DESIGN.md's Configuration table", typ, name)
			}
			delete(rows, name)
		}
		for name := range rows {
			t.Errorf("DESIGN.md's %s table has a row for %s, which is not a field", typ, name)
		}
	}
}
