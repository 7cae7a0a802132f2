package harness

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
)

// smokeRows runs the smallest benchmark once with low effort and caches it
// for all table-printing tests.
func smokeRows(t *testing.T) []*Row {
	t.Helper()
	cfg := Config{
		Benchmarks:      []string{"4gt10-v1_81"},
		PlaceIterations: 2000,
		Seed:            3,
		Ablations:       true,
	}
	rows, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestRunProducesCompleteRow(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test in -short mode")
	}
	rows := smokeRows(t)
	if len(rows) != 1 {
		t.Fatalf("rows: %d", len(rows))
	}
	r := rows[0]
	if r.Ours == nil || r.NoBridge == nil || r.Conference == nil {
		t.Fatal("missing results")
	}
	if r.Canonical.Volume() <= r.Lin1D.Volume() {
		t.Fatal("canonical should exceed 1D baseline")
	}
	if r.Ours.Volume >= r.Canonical.TotalVolume(r.boxVol()) {
		t.Fatalf("ours %d should beat canonical %d",
			r.Ours.Volume, r.Canonical.TotalVolume(r.boxVol()))
	}
	// Bridging ablation: without bridging the volume must not be smaller.
	if r.NoBridge.Volume < r.Ours.Volume {
		t.Fatalf("no-bridge volume %d smaller than bridged %d",
			r.NoBridge.Volume, r.Ours.Volume)
	}

	var buf bytes.Buffer
	tables := []func(io.Writer, []*Row) error{Table1, Table2, Table3, Table4, Table5, Table6, Summary}
	for i, table := range tables {
		if err := table(&buf, rows); err != nil {
			t.Fatalf("table %d: %v", i+1, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"Table I", "Table II", "Table III", "Table IV",
		"Table V", "Table VI", "4gt10-v1_81", "Headline"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFigures(t *testing.T) {
	var buf bytes.Buffer
	if err := FigMotivation(context.Background(), &buf, 3); err != nil {
		t.Fatal(err)
	}
	FigBoxes(&buf)
	out := buf.String()
	if !strings.Contains(out, "canonical volume: 54") {
		t.Errorf("motivation figure wrong: %s", out)
	}
	if !strings.Contains(out, "16×6×2 = 192") {
		t.Errorf("box figure wrong: %s", out)
	}
}

func TestConfigs(t *testing.T) {
	d := DefaultConfig()
	if len(d.Benchmarks) == 0 || !d.Ablations {
		t.Fatalf("default config: %+v", d)
	}
	f := FullConfig()
	if len(f.Benchmarks) != 8 {
		t.Fatalf("full config benchmarks: %d", len(f.Benchmarks))
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	_, err := Run(Config{Benchmarks: []string{"nope"}})
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
