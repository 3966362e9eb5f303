package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"govisor/internal/metrics"
)

// TestRegistryComplete checks the experiment index is well-formed.
func TestRegistryComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Name == "" || e.Run == nil || e.Notes == "" {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"T1", "F7", "A4", "F15"} {
		if !seen[id] {
			t.Fatalf("missing experiment %s", id)
		}
	}
}

// TestFastExperimentsProduceTables runs the sub-second experiments end to
// end and sanity-checks their tables (the heavyweight ones are exercised by
// the root bench harness and cmd/benchsuite).
func TestFastExperimentsProduceTables(t *testing.T) {
	fast := map[string]int{ // id → minimum rows
		"T2":  5,
		"F15": 4,
		"A2":  2,
		"A4":  8,
		"T14": 3,
		"F9":  4,
	}
	for _, e := range All() {
		rows, ok := fast[e.ID]
		if !ok {
			continue
		}
		table, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(table.Rows) < rows {
			t.Fatalf("%s: %d rows, want ≥ %d:\n%s", e.ID, len(table.Rows), rows, table.String())
		}
		if len(table.Header) == 0 {
			t.Fatalf("%s: no header", e.ID)
		}
		out := table.String()
		if !strings.Contains(out, table.Header[0]) {
			t.Fatalf("%s: header not rendered", e.ID)
		}
	}
}

// TestMigrationTablesGolden pins the migration experiments' tables byte
// for byte against testdata/<id>.txt. Every number in them is simulated
// (cycles, pages, bytes, rounds), so any change to the migration engine's
// algorithms or cost model shows up here as a diff. The golden text was
// recorded from the original in-process engine, which the streamed engine
// replaced.
func TestMigrationTablesGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("full-size experiments; see race_off_test.go")
	}
	for _, tc := range []struct {
		id  string
		run func() (*metrics.Table, error)
	}{
		{"F7", F7Migration},
		{"F8", F8PrecopyRounds},
		{"A3", A3PrecopyBounds},
	} {
		t.Run(tc.id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.id+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			table, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := table.String(); got != string(want) {
				t.Errorf("%s table moved:\ngot:\n%s\nwant:\n%s", tc.id, got, want)
			}
		})
	}
}

// TestT1ShapeHolds asserts the headline T1 ordering as a regression guard:
// native ≈ hw ≪ para ≈ trap for privileged ops.
func TestT1ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	table, err := T1PrivilegedOps()
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: csr pair — columns: op, native, hw, para, trap.
	row := table.Rows[0]
	var vals [4]float64
	for i := 0; i < 4; i++ {
		var v float64
		if _, err := sscan(row[i+1], &v); err != nil {
			t.Fatalf("parsing %q: %v", row[i+1], err)
		}
		vals[i] = v
	}
	native, hw, para, trap := vals[0], vals[1], vals[2], vals[3]
	if hw > 3*native {
		t.Errorf("hw %v should be ≈ native %v", hw, native)
	}
	if para < 50*native || trap < 50*native {
		t.Errorf("deprivileged modes should be ≫ native: %v %v vs %v", para, trap, native)
	}
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}
