// Package methods implements the ten browser-based RTT measurement
// methods of the paper's Table 1 (plus the Java UDP variant the paper
// lists but excludes from its comparison), runnable against the simulated
// testbed under any browser profile.
//
// Each method follows the Figure 1 two-phase model: a preparation phase
// that downloads the container page (and, for socket methods, establishes
// the measurement connection), then a measurement phase that performs two
// back-to-back probes reusing the same object — yielding the Δd1 (cold)
// and Δd2 (warm) samples of the evaluation. Probe trains and bulk
// transfers, which the derived-metric experiments use, are the same two
// phases with more rounds or with one bulk round (Runner.Drive).
package methods

import (
	"errors"
	"fmt"

	"github.com/browsermetric/browsermetric/internal/browser"
)

// Kind enumerates the measurement methods.
type Kind int

// The ten compared methods (Figure 3 order) plus the Java UDP extension.
const (
	XHRGet Kind = iota
	XHRPost
	DOM
	WebSocket
	FlashGet
	FlashPost
	FlashTCP
	JavaGet
	JavaPost
	JavaTCP
	JavaUDP
)

// Transport distinguishes Table 1's two approach families.
type Transport int

// Transport values.
const (
	TransportHTTP Transport = iota
	TransportSocket
)

func (t Transport) String() string {
	if t == TransportHTTP {
		return "HTTP-based"
	}
	return "socket-based"
}

// Spec is the Table 1 row for a method.
type Spec struct {
	Kind Kind
	// Name is the figure caption name, e.g. "XHR GET".
	Name string
	// API is the browser interface the method is built on.
	API browser.API
	// Post marks HTTP POST methods.
	Post bool
	// Transport is HTTP-based or socket-based.
	Transport Transport
	// Technology is Table 1's technology column (XHR, DOM, Flash, ...).
	Technology string
	// Availability is "native" or "plug-in".
	Availability string
	// SameOrigin reports whether the method is subject to the same-origin
	// policy by default ("*" in Table 1 means bypassable).
	SameOrigin string
	// Metrics lists the path-quality metrics the method can measure.
	Metrics string
	// Tools lists example tools/services using the method.
	Tools string
}

var specs = []Spec{
	{XHRGet, "XHR GET", browser.APIXHR, false, TransportHTTP, "XHR", "native", "yes",
		"RTT, Tput", "Speedof.me, BandwidthPlace, Janc"},
	{XHRPost, "XHR POST", browser.APIXHR, true, TransportHTTP, "XHR", "native", "yes",
		"RTT, Tput", "Janc"},
	{DOM, "DOM", browser.APIDOM, false, TransportHTTP, "DOM", "native", "no",
		"RTT, Tput", "Janc, BandwidthPlace, Wang"},
	{WebSocket, "WebSocket", browser.APIWebSocket, false, TransportSocket, "WebSocket", "native", "no",
		"RTT, Tput", ""},
	{FlashGet, "Flash GET", browser.APIFlashHTTP, false, TransportHTTP, "Flash", "plug-in", "yes*",
		"RTT, Tput", "Speedtest, AuditMyPC, Speedchecker, Bandwidth Meter, InternetFrog"},
	{FlashPost, "Flash POST", browser.APIFlashHTTP, true, TransportHTTP, "Flash", "plug-in", "yes",
		"RTT, Tput", "Speedtest"},
	{FlashTCP, "Flash TCP socket", browser.APIFlashSocket, false, TransportSocket, "Flash", "plug-in", "yes*",
		"RTT, Tput", "Speedtest"},
	{JavaGet, "Java applet GET", browser.APIJavaHTTP, false, TransportHTTP, "Java applet", "plug-in", "yes*",
		"RTT, Tput", ""},
	{JavaPost, "Java applet POST", browser.APIJavaHTTP, true, TransportHTTP, "Java applet", "plug-in", "yes*",
		"RTT, Tput", ""},
	{JavaTCP, "Java applet TCP socket", browser.APIJavaSocket, false, TransportSocket, "Java applet", "plug-in", "no",
		"RTT, Tput", "Netalyzr, HMN, JavaNws, Pingtest, NDT, AuditMyPC"},
	{JavaUDP, "Java applet UDP socket", browser.APIJavaUDP, false, TransportSocket, "Java applet", "plug-in", "no",
		"RTT, Tput, Loss", "Netalyzr, HMN, NDT"},
}

// Get returns the spec for a kind.
func Get(k Kind) Spec {
	for _, s := range specs {
		if s.Kind == k {
			return s
		}
	}
	panic(fmt.Sprintf("methods: unknown kind %d", int(k)))
}

// All returns every spec including the Java UDP extension.
func All() []Spec { return append([]Spec(nil), specs...) }

// Compared returns the ten methods the paper's evaluation compares
// (excluding Java UDP), in Figure 3 subfigure order.
func Compared() []Spec {
	order := []Kind{XHRGet, XHRPost, DOM, WebSocket, FlashGet, FlashPost, FlashTCP, JavaGet, JavaPost, JavaTCP}
	out := make([]Spec, 0, len(order))
	for _, k := range order {
		out = append(out, Get(k))
	}
	return out
}

// String returns the method's display name.
func (k Kind) String() string { return Get(k).Name }

// ErrUnsupported reports that the browser profile cannot run the method
// (e.g. WebSocket on IE 9).
var ErrUnsupported = errors.New("methods: method not supported by this browser")
