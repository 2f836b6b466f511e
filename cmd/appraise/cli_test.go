package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binDir holds the appraise binary that TestMain builds, so the tests in
// this file drive the command as a process: its flags, exit code, stdout
// and files.
var binDir string

func TestMain(m *testing.M) {
	code := func() int {
		dir, err := os.MkdirTemp("", "appraise-test")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		if out, err := exec.Command("go", "build", "-o", dir, ".").CombinedOutput(); err != nil {
			panic("go build: " + err.Error() + "\n" + string(out))
		}
		binDir = dir
		return m.Run()
	}()
	os.Exit(code)
}

// appraise runs the built command in dir with args and returns its
// stdout, stderr and exit code.
func appraise(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, "appraise"), args...)
	cmd.Dir = dir
	var o, e bytes.Buffer
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return o.String(), e.String(), ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return o.String(), e.String(), 0
}

// digest is the first 16 hex digits of the SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// TestStdoutPinned compares the stdout of the invocations that no golden
// artifact covers with digests recorded before the command was rebuilt
// around its output table: the rebuild must not move a byte of them.
func TestStdoutPinned(t *testing.T) {
	for _, c := range []struct {
		args string
		want string
	}{
		{"-faultimpact -runs 3", "5df5e0affe3dadd4"},
		{"-impact -runs 5", "d1ca9d88df1a6dac"},
		{"-attribution -runs 5", "3494cc4c0dfeb38b"},
		{"-recommend -runs 5", "2b7969d1544b3f8e"},
		{"-table 1 -runs 5", "91164df0aa8de300"},
		{"-table 2 -runs 5", "e81572a017a32cf3"},
		{"-table 3 -runs 5", "0f22dd2fa5cb2401"},
		{"-table 4 -runs 5", "c73b29c159483f13"},
		{"-fig 4 -ascii -runs 5", "c631cadda7478ac4"},
		{"-fig 5 -runs 5", "62b1d0a9e211ded7"},
	} {
		stdout, stderr, code := appraise(t, t.TempDir(), strings.Fields(c.args)...)
		if code != 0 {
			t.Errorf("appraise %s: exit %d: %s", c.args, code, stderr)
			continue
		}
		if got := digest([]byte(stdout)); got != c.want {
			t.Errorf("appraise %s: stdout digest %s, want %s", c.args, got, c.want)
		}
	}
}

// TestSweepPinned pins a two-fault sweep's report and CSV the same way.
func TestSweepPinned(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr, code := appraise(t, dir, "-sweep", "-faults", "clean,lossy1pct", "-runs", "3",
		"-cache-dir", "cache", "-csv", "sweep.csv")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "sweep.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digest([]byte(stdout)), "8e5e5ced4e69d282"; got != want {
		t.Errorf("report digest %s, want %s", got, want)
	}
	if got, want := digest(csv), "2c4f4cd28cf3007c"; got != want {
		t.Errorf("CSV digest %s, want %s", got, want)
	}
}

// TestUnknownSelectorExits2 checks that a -table or -fig value the
// outputs table does not hold is a usage error, not an empty success.
func TestUnknownSelectorExits2(t *testing.T) {
	for _, args := range [][]string{{"-table", "5"}, {"-fig", "7"}, {"-all", "-fig", "4a"}} {
		stdout, stderr, code := appraise(t, t.TempDir(), args...)
		if code != 2 || stdout != "" || stderr == "" {
			t.Errorf("appraise %v: exit %d, stdout %q, stderr %q; want exit 2, no stdout and a message", args, code, stdout, stderr)
		}
	}
}

// TestFaultImpactMetricsMetersItsSweep checks that -metrics with
// -faultimpact meters the fault-impact sweep, runs no Fig-3 study, and
// writes the snapshot after the sweep.
func TestFaultImpactMetricsMetersItsSweep(t *testing.T) {
	dir := t.TempDir()
	_, stderr, code := appraise(t, dir, "-faultimpact", "-runs", "2", "-cache-dir", "cache", "-metrics", "m.json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if strings.Contains(stderr, "full matrix") {
		t.Errorf("-faultimpact -metrics ran the Fig-3 study:\n%s", stderr)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "m.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(snap), `"sweep_cache_stores_total": 40`) {
		t.Errorf("snapshot lacks the sweep's 40 cache stores:\n%s", snap)
	}
}

// TestFaultImpactProgressLines checks that -progress reaches the
// fault-impact sweep: one line per cell of its 4 x 10 matrix.
func TestFaultImpactProgressLines(t *testing.T) {
	_, stderr, code := appraise(t, t.TempDir(), "-faultimpact", "-runs", "2", "-progress")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	n := 0
	for _, line := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(line, "cell ") {
			n++
		}
	}
	if n != 40 {
		t.Errorf("%d progress lines, want 40:\n%s", n, stderr)
	}
}

// TestSweepWithoutCacheDir checks that -sweep runs uncached without
// -cache-dir and prints and writes what a sweep on a fresh cache does.
func TestSweepWithoutCacheDir(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-sweep", "-faults", "clean,lossy1pct", "-runs", "3"}
	cached, stderr, code := appraise(t, dir, append(args, "-cache-dir", "cache", "-csv", "cached.csv")...)
	if code != 0 {
		t.Fatalf("cached: exit %d: %s", code, stderr)
	}
	uncached, stderr, code := appraise(t, dir, append(args, "-csv", "uncached.csv")...)
	if code != 0 {
		t.Fatalf("uncached: exit %d: %s", code, stderr)
	}
	if uncached != cached {
		t.Errorf("uncached stdout differs from the cached sweep's:\n%s\nvs\n%s", uncached, cached)
	}
	a, errA := os.ReadFile(filepath.Join(dir, "cached.csv"))
	b, errB := os.ReadFile(filepath.Join(dir, "uncached.csv"))
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !bytes.Equal(a, b) {
		t.Error("uncached CSV differs from the cached sweep's")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 3 {
		t.Errorf("the uncached sweep left files behind: %v", entries)
	}
}
