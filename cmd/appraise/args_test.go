package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// usageLines returns every appraise invocation the documents show: the
// command's doc comment, the cmd/appraise entries of DESIGN.md's
// experiment index and the README's go run lines. Each is the argument
// list after the program name, with "# comments" dropped, "a & b" split
// into two invocations and an "x|y" value expanded into one invocation
// per alternative.
func usageLines(t *testing.T) map[string][]string {
	t.Helper()
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var cmds []string
	for _, line := range strings.Split(read("main.go"), "\n") {
		if rest, ok := strings.CutPrefix(line, "//\t"); ok && strings.HasPrefix(rest, "appraise ") {
			cmds = append(cmds, rest)
		}
	}
	design := read(filepath.Join("..", "..", "DESIGN.md"))
	start, end := strings.Index(design, "\n## 4."), strings.Index(design, "\n## 5.")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no section 4")
	}
	for _, m := range regexp.MustCompile("`cmd/appraise ([^`]*)`").FindAllStringSubmatch(design[start:end], -1) {
		cmds = append(cmds, "appraise "+m[1])
	}
	for _, line := range strings.Split(read(filepath.Join("..", "..", "README.md")), "\n") {
		if rest, ok := strings.CutPrefix(line, "go run ./cmd/appraise "); ok {
			cmds = append(cmds, "appraise "+rest)
		}
	}

	out := map[string][]string{}
	for _, cmd := range cmds {
		cmd, _, _ = strings.Cut(cmd, "#")
		for _, part := range strings.Split(cmd, "&") {
			fields := strings.Fields(part)
			if len(fields) == 0 {
				continue
			}
			if fields[0] != "appraise" {
				t.Errorf("%q does not start with appraise", part)
				continue
			}
			variants := [][]string{nil}
			for _, f := range fields[1:] {
				var next [][]string
				for _, alt := range strings.Split(f, "|") {
					for _, v := range variants {
						next = append(next, append(append([]string(nil), v...), alt))
					}
				}
				variants = next
			}
			for _, v := range variants {
				out[strings.Join(v, " ")] = v
			}
		}
	}
	if len(out) < 20 {
		t.Fatalf("found %d usage lines; the documents show more", len(out))
	}
	return out
}

// TestUsageLinesParse checks that every invocation the documents show is
// a valid command line.
func TestUsageLinesParse(t *testing.T) {
	for line, args := range usageLines(t) {
		if _, err := parseArgs(args, io.Discard); err != nil {
			t.Errorf("appraise %s: %v", line, err)
		}
	}
}

// TestParseArgsRejects covers the usage errors: no output, an unknown
// table or figure, and a fault list outside -sweep.
func TestParseArgsRejects(t *testing.T) {
	for _, c := range []struct {
		args string
		want string
	}{
		{"-runs 3", errNoOutput.Error()},
		{"-ascii", errNoOutput.Error()},
		{"-table 5", "no table 5"},
		{"-fig 7", "no figure 7"},
		{"-faults bogus -all", "unknown profile"},
		{"-fig 3 -faults clean,lossy1pct", "only -sweep takes a list"},
		{"-sweep -trace t.json -faults clean,lossy1pct", "only -sweep takes a list"},
	} {
		_, err := parseArgs(strings.Fields(c.args), io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("appraise %s: error %v, want one naming %q", c.args, err, c.want)
		}
	}
	if _, err := parseArgs([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: error %v, want flag.ErrHelp", err)
	}
}

// TestStudySelection checks which invocations run the Fig-3 study:
// -metrics meters the study only when no other matrix runs.
func TestStudySelection(t *testing.T) {
	for _, c := range []struct {
		args  string
		study bool
	}{
		{"-metrics m.json", true},
		{"-metrics m.json -table 1", true},
		{"-faultimpact -metrics m.json", false},
		{"-sweep -metrics m.json", false},
		{"-sweep -csv s.csv", false},
		{"-csv s.csv", true},
		{"-faultimpact -cellstats", true},
		{"-fig 4 -ascii", false},
	} {
		o, err := parseArgs(strings.Fields(c.args), io.Discard)
		if err != nil {
			t.Fatalf("appraise %s: %v", c.args, err)
		}
		if _, study := selected(&o); study != c.study {
			t.Errorf("appraise %s: study %v, want %v", c.args, study, c.study)
		}
	}
}
