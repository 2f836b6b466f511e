// Command pcaptool works with the libpcap files the simulated capture
// produces: generate one from a testbed run, dump it tcpdump-style, or
// compute the wire-level RTT pairs the appraisal uses as ground truth.
//
// Usage:
//
//	pcaptool -gen trace.pcap [-method 3] [-browser C] [-os W]
//	pcaptool -dump trace.pcap
//	pcaptool -rtt trace.pcap -port 8080
//
// Generated files are standard nanosecond pcap (Ethernet link type) and
// open in Wireshark/tcpdump.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/capture"
	"github.com/browsermetric/browsermetric/internal/methods"
	"github.com/browsermetric/browsermetric/internal/netsim"
	"github.com/browsermetric/browsermetric/internal/testbed"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one pcaptool command and returns its exit status: 0 on
// success, 1 when the command fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pcaptool", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		gen    = fs.String("gen", "", "run one measurement and write its capture to this pcap file")
		method = fs.Int("method", int(methods.WebSocket), "method kind for -gen (0-10, see Table 1 order)")
		bName  = fs.String("browser", "C", "browser initial for -gen (C,F,IE,O,S)")
		osName = fs.String("os", "W", "system initial for -gen (W,U)")
		dump   = fs.String("dump", "", "print packets of this pcap file")
		rtt    = fs.String("rtt", "", "compute request/response RTTs of this pcap file")
		port   = fs.Uint("port", uint(testbed.WSPort), "server port for -rtt matching")
		filter = fs.String("filter", "", "tcpdump-like filter for -dump (e.g. 'tcp and port 80')")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var err error
	switch {
	case *gen != "":
		kind, prof, uerr := genConfig(*method, *bName, *osName)
		if uerr != nil {
			fmt.Fprintln(stderr, "pcaptool:", uerr)
			return 2
		}
		var frames int
		var probePort uint16
		err = createWith(*gen, func(w io.Writer) (err error) {
			frames, probePort, err = generate(w, kind, prof)
			return err
		})
		if err == nil {
			fmt.Fprintf(stdout, "wrote %d frames (%s on %s, probes on port %d) to %s\n",
				frames, kind, prof.Label(), probePort, *gen)
		}
	case *dump != "":
		err = dumpFile(stdout, *dump, *filter)
	case *rtt != "":
		if *port > math.MaxUint16 {
			fmt.Fprintf(stderr, "pcaptool: port %d out of range\n", *port)
			return 2
		}
		err = rttFile(stdout, *rtt, uint16(*port))
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "pcaptool:", err)
		return 1
	}
	return 0
}

// genConfig resolves the -gen flags to a method and a Table 2 profile.
func genConfig(method int, bInitial, osInitial string) (methods.Kind, *browser.Profile, error) {
	kind := methods.Kind(method)
	if !slices.ContainsFunc(methods.All(), func(s methods.Spec) bool { return s.Kind == kind }) {
		return 0, nil, fmt.Errorf("unknown method %d (want 0-%d)", method, len(methods.All())-1)
	}
	var b browser.Name
	found := false
	for _, n := range []browser.Name{browser.Chrome, browser.Firefox, browser.IE, browser.Opera, browser.Safari} {
		if n.Initial() == bInitial {
			b, found = n, true
		}
	}
	if !found {
		return 0, nil, fmt.Errorf("unknown browser initial %q", bInitial)
	}
	var osv browser.OS
	switch osInitial {
	case "W":
		osv = browser.Windows
	case "U":
		osv = browser.Ubuntu
	default:
		return 0, nil, fmt.Errorf("unknown system initial %q (want W or U)", osInitial)
	}
	prof := browser.Lookup(b, osv)
	if prof == nil {
		return 0, nil, fmt.Errorf("%s (%s) is not a Table 2 configuration", bInitial, osInitial)
	}
	return kind, prof, nil
}

// createWith creates the file at path, fills it through write and
// closes it, reporting the first error of the three.
func createWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// generate runs one measurement of kind on prof and writes its capture
// to w as pcap. It returns the frame count and the probes' server port.
func generate(w io.Writer, kind methods.Kind, prof *browser.Profile) (frames int, port uint16, err error) {
	tb := testbed.New(testbed.Config{Seed: 1})
	runner := &methods.Runner{TB: tb, Profile: prof}
	res, err := runner.Run(kind)
	if err != nil {
		return 0, 0, err
	}
	if _, err := tb.Cap.WriteTo(w); err != nil {
		return 0, 0, err
	}
	return len(tb.Cap.Records()), res.ServerPort, nil
}

func dumpFile(stdout io.Writer, path, filterExpr string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := capture.ReadPcap(f)
	if err != nil {
		return err
	}
	var filt capture.Filter
	if filterExpr != "" {
		if filt, err = capture.ParseFilter(filterExpr); err != nil {
			return err
		}
	}
	for _, r := range recs {
		p, err := netsim.Decode(r.Data, r.Time)
		if err != nil {
			fmt.Fprintf(stdout, "%v [undecodable: %v]\n", r.Time, err)
			continue
		}
		if filt != nil && !filt(p) {
			continue
		}
		fmt.Fprintln(stdout, p)
	}
	return nil
}

func rttFile(stdout io.Writer, path string, port uint16) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := capture.ReadPcap(f)
	if err != nil {
		return err
	}
	cap := capture.FromRecords(recs)
	pairs := cap.MatchRTT(port)
	if len(pairs) == 0 {
		fmt.Fprintf(stdout, "no request/response pairs on port %d\n", port)
		return nil
	}
	for i, p := range pairs {
		hs := ""
		if p.Handshake {
			hs = "  (preceded by TCP handshake)"
		}
		fmt.Fprintf(stdout, "pair %d: send=%v recv=%v rtt=%v%s\n", i+1, p.SendAt, p.RecvAt, p.RTT(), hs)
	}
	return nil
}
