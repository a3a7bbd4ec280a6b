package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestBenchSingleExperiment(t *testing.T) {
	if err := run(io.Discard, "table2", 1, 5, 0, "", "all", 1, ""); err != nil {
		t.Fatal(err)
	}
}

func TestBenchUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, "table99", 1, 5, 0, "", "all", 1, ""); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestBenchChaosExperiment(t *testing.T) {
	if err := run(io.Discard, "chaos", 1, 5, 0, "", "sensor-stuck", 7, ""); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, "chaos", 1, 5, 0, "", "not-a-scenario", 1, ""); err == nil {
		t.Error("unknown chaos scenario accepted")
	}
}

func TestBenchCSVExport(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	if err := run(io.Discard, "accuracy", 1, 5, 0, dir, "all", 1, ""); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"profiles.csv", "cases.csv"} {
		if fi, err := os.Stat(filepath.Join(dir, f)); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty", f)
		}
	}
}

func TestBenchSuiteAndWorstExperiments(t *testing.T) {
	if err := run(io.Discard, "suite", 1, 5, 0, "", "all", 1, ""); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, "worst", 1, 5, 0, "", "all", 1, ""); err != nil {
		t.Fatal(err)
	}
}
