package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/browsermetric/browsermetric/internal/capture"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

func TestGenRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-method", "42"}, "unknown method 42"},
		{[]string{"-method", "-1"}, "unknown method -1"},
		{[]string{"-os", "X"}, `unknown system initial "X"`},
		{[]string{"-browser", "Z"}, `unknown browser initial "Z"`},
	} {
		out := filepath.Join(t.TempDir(), "x.pcap")
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-gen", out}, c.args...), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q, want it to name %q", c.args, stderr.String(), c.want)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%v: a rejected -gen created %s", c.args, out)
		}
	}
}

func TestRTTRejectsPortOutOfRange(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rtt", "x.pcap", "-port", "73616"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2 (a port above 65535 must not wrap to 8080)", code)
	}
}

func TestCreateWithReportsCloseError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.pcap")
	err := createWith(path, func(w io.Writer) error {
		return w.(io.Closer).Close() // the deferred close then fails
	})
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("createWith = %v, want the close error", err)
	}
}

func TestGenWriteErrorExitsNonZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-gen", filepath.Join(t.TempDir(), "missing", "x.pcap")}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
}

// TestGenRoundTrip writes a capture with -gen, reads it back and matches
// its request/response pairs on the WebSocket port.
func TestGenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ws.pcap")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-gen", path, "-os", "U"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := capture.ReadPcap(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || !strings.Contains(stdout.String(), "wrote ") {
		t.Fatalf("%d records, stdout %q", len(recs), stdout.String())
	}
	pairs := capture.FromRecords(recs).MatchRTT(testbed.WSPort)
	if len(pairs) == 0 {
		t.Fatal("no request/response pairs on the WebSocket port")
	}
	for i, p := range pairs {
		if p.RTT() <= 0 {
			t.Fatalf("pair %d: rtt %v", i, p.RTT())
		}
	}
}

// TestGenMatchesCommittedArtifact regenerates artifacts/websocket_run.pcap
// with the command artifacts/README.md lists and requires byte equality:
// the capture is deterministic, so a difference is either a regression or
// an artifact that must be regenerated with the change.
func TestGenMatchesCommittedArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "websocket_run.pcap")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-gen", out, "-method", "3", "-browser", "C", "-os", "W"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "artifacts", "websocket_run.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("websocket_run.pcap differs from the regenerated capture (%d vs %d bytes); regenerate it per artifacts/README.md",
			len(want), len(got))
	}
}
