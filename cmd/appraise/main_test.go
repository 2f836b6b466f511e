package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenArtifacts regenerates the committed artifacts with the
// commands artifacts/README.md lists and requires byte equality: the
// reproduction's outputs are deterministic, so any difference is either
// a regression or an artifact that must be regenerated with the change.
func TestGoldenArtifacts(t *testing.T) {
	golden := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join("..", "..", "artifacts", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	check := func(name string, got []byte) {
		t.Helper()
		if want := golden(name); !bytes.Equal(got, want) {
			t.Errorf("%s differs from the regenerated output (%d vs %d bytes); regenerate it per artifacts/README.md",
				name, len(want), len(got))
		}
	}
	tmp := t.TempDir()

	// appraise -all -runs 50
	var out bytes.Buffer
	if err := run(&out, options{all: true, runs: 50}); err != nil {
		t.Fatal(err)
	}
	check("appraise_all.txt", out.Bytes())

	// appraise -fig 3 -ascii -runs 50
	out.Reset()
	if err := run(&out, options{fig: 3, ascii: true, runs: 50}); err != nil {
		t.Fatal(err)
	}
	check("fig3_ascii.txt", out.Bytes())

	// appraise -markdown report.md
	md := filepath.Join(tmp, "report.md")
	out.Reset()
	if err := run(&out, options{mdPath: md, runs: 50}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(md)
	if err != nil {
		t.Fatal(err)
	}
	check("report.md", got)

	// appraise -csv study.csv
	csv := filepath.Join(tmp, "study.csv")
	if err := run(&out, options{csvPath: csv, runs: 50}); err != nil {
		t.Fatal(err)
	}
	if got, err = os.ReadFile(csv); err != nil {
		t.Fatal(err)
	}
	check("study.csv", got)
}
