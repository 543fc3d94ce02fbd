package benchprobe

import (
	"regexp"
	"testing"
)

// rowName is the reported-name grammar: `<area>.<what>`, lower case.
var rowName = regexp.MustCompile(`^[a-z0-9]+\.[a-z0-9_]+$`)

// TestTableNames checks every row by name only (no body runs): names
// are unique and well-formed, every row has a suite and a body, each
// suite's rows are contiguous, so Suites lists each suite exactly once,
// and the parameters change no row, so Suites may read Table(0, 0).
func TestTableNames(t *testing.T) {
	rows, other := Table(42, 0), Table(7, 3)
	if len(rows) == 0 || len(other) != len(rows) {
		t.Fatalf("table has %d rows at seed 42, %d at seed 7", len(rows), len(other))
	}
	seen := map[string]bool{}
	for i, r := range rows {
		if o := other[i]; o.Suite != r.Suite || o.Name != r.Name {
			t.Errorf("row %d: %s/%s at seed 42, %s/%s at seed 7", i, r.Suite, r.Name, o.Suite, o.Name)
		}
		if !rowName.MatchString(r.Name) {
			t.Errorf("row name %q is not <area>.<what>", r.Name)
		}
		if seen[r.Name] {
			t.Errorf("duplicate row name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Suite == "" || r.Suite == All || r.Fn == nil {
			t.Errorf("row %q: suite %q, body set %t", r.Name, r.Suite, r.Fn != nil)
		}
	}
	suites := map[string]bool{}
	for _, s := range Suites() {
		if suites[s] {
			t.Errorf("suite %q is split across the table", s)
		}
		suites[s] = true
	}
}
