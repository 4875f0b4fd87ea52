package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeInput(t *testing.T, dir string) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("city,vip,amount\n")
	rng := rand.New(rand.NewSource(1))
	cities := []string{"paris", "tokyo", "lima"}
	for i := 0; i < 400; i++ {
		c := rng.Intn(3)
		vip := "no"
		if c == 0 && rng.Float64() < 0.6 {
			vip = "yes"
		}
		fmt.Fprintf(&sb, "%s,%s,%.2f\n", cities[c], vip, 10+rng.Float64()*1000)
	}
	in := filepath.Join(dir, "in.csv")
	if err := os.WriteFile(in, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := writeInput(t, dir)
	out := filepath.Join(dir, "out.csv")
	if err := run(context.Background(), in, out, 1.0, 0.3, 4, 16, 0, 0, 7); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "city,vip,amount" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 401 {
		t.Errorf("output rows = %d, want 400 + header", len(lines)-1)
	}
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if cells[0] != "paris" && cells[0] != "tokyo" && cells[0] != "lima" {
			t.Fatalf("unknown city %q in output", cells[0])
		}
		if cells[1] != "yes" && cells[1] != "no" {
			t.Fatalf("unknown vip %q", cells[1])
		}
	}
}

func TestRunCustomRowCount(t *testing.T) {
	dir := t.TempDir()
	in := writeInput(t, dir)
	out := filepath.Join(dir, "out.csv")
	if err := run(context.Background(), in, out, 1.0, 0.3, 4, 16, 55, 0, 7); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(out)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 56 {
		t.Errorf("rows = %d, want 55 + header", len(lines)-1)
	}
}

func TestRunMissingInput(t *testing.T) {
	if err := run(context.Background(), "/does/not/exist.csv", "/tmp/x.csv", 1, 0.3, 4, 16, 0, 0, 1); err == nil {
		t.Fatal("missing input must error")
	}
}

// TestRunRejectsNonFiniteCell: a non-finite number in a numeric column
// must fail the run with the cell's position, not widen the inferred
// bins to infinity and write +Inf (or NaN) into every synthetic row.
func TestRunRejectsNonFiniteCell(t *testing.T) {
	for _, cell := range []string{"inf", "NaN"} {
		t.Run(cell, func(t *testing.T) {
			dir := t.TempDir()
			in := writeInput(t, dir)
			data, err := os.ReadFile(in)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(string(data), "\n")
			cells := strings.Split(lines[6], ",") // data row 6
			cells[2] = cell
			lines[6] = strings.Join(cells, ",")
			if err := os.WriteFile(in, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
				t.Fatal(err)
			}
			err = run(context.Background(), in, filepath.Join(dir, "out.csv"), 1.0, 0.3, 4, 16, 0, 0, 7)
			if err == nil {
				t.Fatal("run accepted a non-finite cell")
			}
			for _, want := range []string{"row 6", "column 3 (amount)", "non-finite"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
		})
	}
}

func TestInferSchema(t *testing.T) {
	header := []string{"cat", "num"}
	records := [][]string{}
	for i := 0; i < 40; i++ {
		records = append(records, []string{"ab", fmt.Sprint(float64(i) * 1.5)})
	}
	attrs, err := inferSchema(header, records, 16)
	if err != nil {
		t.Fatal(err)
	}
	if attrs[0].Kind != 0 || attrs[0].Size() != 1 {
		t.Errorf("cat column: kind %v size %d", attrs[0].Kind, attrs[0].Size())
	}
	if attrs[1].Kind != 1 || attrs[1].Size() != 16 {
		t.Errorf("num column: kind %v size %d", attrs[1].Kind, attrs[1].Size())
	}
	// Few distinct numeric values stay categorical.
	small := [][]string{{"x", "1"}, {"y", "2"}, {"z", "1"}}
	attrs2, err := inferSchema(header, small, 16)
	if err != nil {
		t.Fatal(err)
	}
	if attrs2[1].Kind != 0 {
		t.Error("low-cardinality numeric column should stay categorical")
	}
}

// TestRunRejectsBinsThatDoNotRoundTrip: a narrow range at large
// magnitude, 1e15 + k/100 for k < 200 in 16 bins, has bin centres that
// bin elsewhere, so the synthetic output would merge bins. The run
// must refuse the column with SchemaFromSpecs' message, as POST /fit
// does, instead of writing that output.
func TestRunRejectsBinsThatDoNotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	sb.WriteString("x\n")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&sb, "%.2f\n", 1e15+float64(i%200)/100)
	}
	in := filepath.Join(dir, "in.csv")
	if err := os.WriteFile(in, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.csv")
	err := run(context.Background(), in, out, 5, 0.3, 4, 16, 0, 0, 7)
	if err == nil || !strings.Contains(err.Error(), `continuous attribute "x"`) || !strings.Contains(err.Error(), "does not round-trip") {
		t.Fatalf("err = %v, want the schema's round-trip refusal", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("refused run left an output file (stat err %v)", err)
	}
}
