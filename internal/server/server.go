// Package server implements a real-network measurement server: the
// deployable counterpart of the simulated testbed. It hosts the same
// workloads the paper's Apache box did — a container page and probe
// endpoints over HTTP, a WebSocket echo service (RFC 6455, using the same
// frame codec as the simulator), and TCP/UDP echo services — plus an
// artificial response-delay knob for testbed-style calibration.
//
// Everything binds to loopback-or-given host with ephemeral ports by
// default, so examples and tests can run unprivileged and offline.
package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/browsermetric/browsermetric/internal/fleet"
	"github.com/browsermetric/browsermetric/internal/obs"
	"github.com/browsermetric/browsermetric/internal/wssim"
)

// Config controls the listeners.
type Config struct {
	// Host is the bind address (default "127.0.0.1").
	Host string
	// Delay is the artificial pause before every response (the paper's
	// +50 ms; default 0 for live use).
	Delay time.Duration
	// Metrics is the wall-clock observability registry. The server
	// records per-endpoint request counters, service-latency quantile
	// sketches and the artificial-delay knob into it. nil disables
	// instrumentation at zero cost (the obs nil-receiver contract); this
	// registry is separate from the simulator's virtual-time registries,
	// so sim exports stay byte-identical with live observability wired.
	Metrics *obs.Metrics
	// Logger receives structured request and lifecycle logs (requests at
	// Debug, lifecycle at Info). nil disables logging.
	Logger *slog.Logger
	// Fleet, when non-nil, folds probe exchanges from self-identifying
	// clients into the fleet aggregation plane: a /probe request carrying
	// ?sid=<session>&browser=<model>&region=<region> contributes its
	// service time as a delay sample under the (method, browser, region)
	// key. Requests without a sid are served normally and not folded.
	Fleet *fleet.Registry
}

// series holds the precomputed registry keys for one endpoint, so the
// per-request path does no label formatting.
type series struct {
	service  string
	endpoint string
	total    string // request counter
	latency  string // service-latency sketch (ms)
}

// Server is a running measurement server.
type Server struct {
	cfg Config

	httpSrv *http.Server
	httpLn  net.Listener
	wsLn    net.Listener
	tcpLn   net.Listener
	udpConn *net.UDPConn

	serContainer series
	serProbe     series
	serWS        series
	serTCP       series
	serUDP       series
	delayKey     string

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{} // live ws/tcp echo sessions, for forced drain
	wg     sync.WaitGroup

	// Stats.
	httpRequests int64
	wsMessages   int64
	tcpEchoes    int64
	udpEchoes    int64
}

// Addrs exposes the bound addresses of a running server.
type Addrs struct {
	HTTP    string
	WS      string
	TCPEcho string
	UDPEcho string
}

// Start brings up all four services.
func Start(cfg Config) (*Server, error) {
	if cfg.Host == "" {
		cfg.Host = "127.0.0.1"
	}
	s := &Server{cfg: cfg, conns: make(map[net.Conn]struct{})}
	s.initSeries()

	var err error
	if s.httpLn, err = net.Listen("tcp", cfg.Host+":0"); err != nil {
		return nil, fmt.Errorf("server: http listen: %w", err)
	}
	if s.wsLn, err = net.Listen("tcp", cfg.Host+":0"); err != nil {
		s.Close()
		return nil, fmt.Errorf("server: ws listen: %w", err)
	}
	if s.tcpLn, err = net.Listen("tcp", cfg.Host+":0"); err != nil {
		s.Close()
		return nil, fmt.Errorf("server: tcp listen: %w", err)
	}
	udpAddr, err := net.ResolveUDPAddr("udp", cfg.Host+":0")
	if err == nil {
		s.udpConn, err = net.ListenUDP("udp", udpAddr)
	}
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("server: udp listen: %w", err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleContainer)
	mux.HandleFunc("/probe", s.handleProbe)
	s.httpSrv = &http.Server{Handler: mux}

	s.wg.Add(3)
	go func() { defer s.wg.Done(); _ = s.httpSrv.Serve(s.httpLn) }()
	go func() { defer s.wg.Done(); s.serveWS() }()
	go func() { defer s.wg.Done(); s.serveTCPEcho() }()
	s.wg.Add(1)
	go func() { defer s.wg.Done(); s.serveUDPEcho() }()
	if lg := s.cfg.Logger; lg != nil {
		a := s.Addrs()
		lg.Info("server started",
			"http", a.HTTP, "ws", a.WS, "tcp", a.TCPEcho, "udp", a.UDPEcho,
			"delay", cfg.Delay.String())
	}
	return s, nil
}

// initSeries precomputes the wall-clock registry keys and registers
// their HELP text, so the request paths never format labels.
func (s *Server) initSeries() {
	mk := func(service, endpoint string) series {
		return series{
			service:  service,
			endpoint: endpoint,
			total:    obs.L("bm_requests_total", "service", service, "endpoint", endpoint),
			latency:  obs.L("bm_service_latency_ms", "service", service, "endpoint", endpoint),
		}
	}
	s.serContainer = mk("http", "/")
	s.serProbe = mk("http", "/probe")
	s.serWS = mk("ws", "echo")
	s.serTCP = mk("tcp", "echo")
	s.serUDP = mk("udp", "echo")
	s.delayKey = "bm_artificial_delay_ms"
	m := s.cfg.Metrics
	if !m.Enabled() {
		return
	}
	m.SetHelp("bm_requests_total", "Exchanges served, by service and endpoint.")
	m.SetHelp("bm_service_latency_ms", "Server-side service time per exchange in milliseconds, from request receipt to the reply write, which it excludes (streaming quantile sketch).")
	m.SetHelp("bm_artificial_delay_ms", "Artificial response delay applied per exchange in milliseconds (the testbed's +delay knob).")
	m.SetHelp("bm_artificial_delay_config_ms", "Configured artificial response delay in milliseconds.")
	m.Set("bm_artificial_delay_config_ms", float64(s.cfg.Delay)/float64(time.Millisecond))
}

// observe records one served exchange: counter, service-latency sketch,
// the artificial-delay series and a Debug request log. Allocation-free
// when Metrics and Logger are both nil.
func (s *Server) observe(ser series, start time.Time) {
	took := time.Since(start)
	if m := s.cfg.Metrics; m.Enabled() {
		m.Add(ser.total, 1)
		m.ObserveDur(ser.latency, took)
		if s.cfg.Delay > 0 {
			m.ObserveDur(s.delayKey, s.cfg.Delay)
		}
	}
	if lg := s.cfg.Logger; lg != nil {
		lg.Debug("request",
			"service", ser.service, "endpoint", ser.endpoint,
			"ms", float64(took)/float64(time.Millisecond))
	}
}

// Addrs returns the bound addresses.
func (s *Server) Addrs() Addrs {
	return Addrs{
		HTTP:    s.httpLn.Addr().String(),
		WS:      s.wsLn.Addr().String(),
		TCPEcho: s.tcpLn.Addr().String(),
		UDPEcho: s.udpConn.LocalAddr().String(),
	}
}

// Stats returns the exchange counters (http, ws, tcp, udp).
func (s *Server) Stats() (int64, int64, int64, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.httpRequests, s.wsMessages, s.tcpEchoes, s.udpEchoes
}

// Close shuts every listener down, force-closes live echo sessions and
// waits for the service goroutines. For a graceful stop use Drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	if s.httpSrv != nil {
		_ = s.httpSrv.Close()
	} else if s.httpLn != nil {
		_ = s.httpLn.Close()
	}
	if s.wsLn != nil {
		_ = s.wsLn.Close()
	}
	if s.tcpLn != nil {
		_ = s.tcpLn.Close()
	}
	if s.udpConn != nil {
		_ = s.udpConn.Close()
	}
	s.closeConns()
	s.wg.Wait()
	if lg := s.cfg.Logger; lg != nil {
		lg.Info("server closed")
	}
}

// Drain gracefully stops the server: it closes every listener first (no
// new work is accepted), lets in-flight exchanges finish, and only then
// returns — so a Stats read after Drain counts each exchange exactly
// once, never mid-flight. Echo sessions whose clients keep the
// connection open past ctx are force-closed; the context error is
// returned in that case. Drain after Close (or a second Drain) is a
// no-op.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if lg := s.cfg.Logger; lg != nil {
		lg.Info("draining")
	}
	// Stop accepting: raw listeners close immediately; the HTTP server
	// drains in-flight requests up to ctx.
	_ = s.wsLn.Close()
	_ = s.tcpLn.Close()
	_ = s.udpConn.Close()
	err := s.httpSrv.Shutdown(ctx)
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		s.closeConns()
		<-done
		if err == nil {
			err = ctx.Err()
		}
	}
	if lg := s.cfg.Logger; lg != nil {
		h, w, tc, u := s.Stats()
		lg.Info("drained", "http", h, "ws", w, "tcp", tc, "udp", u)
	}
	return err
}

// track registers a live echo session connection for forced drain.
func (s *Server) track(c net.Conn) {
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) closeConns() {
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
}

func (s *Server) pause() {
	if s.cfg.Delay > 0 {
		time.Sleep(s.cfg.Delay)
	}
}

func (s *Server) handleContainer(w http.ResponseWriter, _ *http.Request) {
	start := time.Now()
	s.pause()
	s.count(&s.httpRequests)
	w.Header().Set("Content-Type", "text/html")
	_, _ = io.WriteString(w, "<html><body><script src=\"/measure.js\"></script></body></html>")
	s.observe(s.serContainer, start)
}

func (s *Server) handleProbe(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.pause()
	s.count(&s.httpRequests)
	method := "http-get"
	if r.Method == http.MethodPost {
		method = "http-post"
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = io.WriteString(w, "post-ok")
	} else {
		_, _ = io.WriteString(w, "pong")
	}
	s.observe(s.serProbe, start)
	s.foldFleet(r, method, time.Since(start))
}

// foldFleet contributes one self-identified probe exchange to the fleet
// plane. The query is only parsed when a fleet registry is wired, so the
// plain probe path stays allocation-lean.
func (s *Server) foldFleet(r *http.Request, method string, took time.Duration) {
	if s.cfg.Fleet == nil {
		return
	}
	q := r.URL.Query()
	sid, err := strconv.ParseUint(q.Get("sid"), 10, 64)
	if err != nil {
		return
	}
	browser, region := q.Get("browser"), q.Get("region")
	if browser == "" {
		browser = "unknown"
	}
	if region == "" {
		region = "unknown"
	}
	s.cfg.Fleet.Observe(sid, fleet.Key{Method: method, Browser: browser, Region: region},
		float64(took)/float64(time.Millisecond), false)
}

func (s *Server) count(field *int64) {
	s.mu.Lock()
	*field++
	s.mu.Unlock()
}

// serveWS accepts WebSocket connections: it performs the RFC 6455 upgrade
// using the shared codec and echoes every data frame.
func (s *Server) serveWS() {
	for {
		conn, err := s.wsLn.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		s.track(conn)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.wsSession(conn)
		}()
	}
}

func (s *Server) wsSession(conn net.Conn) {
	br := bufio.NewReader(conn)
	req, err := http.ReadRequest(br)
	if err != nil {
		return
	}
	key := req.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		_, _ = io.WriteString(conn, "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n")
		return
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + wssim.AcceptKey(key) + "\r\n\r\n"
	if _, err := io.WriteString(conn, resp); err != nil {
		return
	}
	var buf []byte
	chunk := make([]byte, 4096)
	for {
		n, err := br.Read(chunk)
		if n > 0 {
			buf = append(buf, chunk[:n]...)
			for {
				f, consumed, ferr := wssim.ParseFrame(buf)
				if ferr == wssim.ErrIncomplete {
					break
				}
				if ferr != nil {
					return
				}
				buf = buf[consumed:]
				switch f.Opcode {
				case wssim.OpClose:
					out := &wssim.Frame{Fin: true, Opcode: wssim.OpClose}
					_, _ = conn.Write(out.Marshal())
					return
				case wssim.OpPing:
					out := &wssim.Frame{Fin: true, Opcode: wssim.OpPong, Payload: f.Payload}
					_, _ = conn.Write(out.Marshal())
				default:
					start := time.Now()
					s.pause()
					s.count(&s.wsMessages)
					s.observe(s.serWS, start)
					out := &wssim.Frame{Fin: true, Opcode: f.Opcode, Payload: f.Payload}
					if _, err := conn.Write(out.Marshal()); err != nil {
						return
					}
				}
			}
		}
		if err != nil {
			return
		}
	}
}

func (s *Server) serveTCPEcho() {
	for {
		conn, err := s.tcpLn.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		s.track(conn)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			buf := make([]byte, 4096)
			for {
				n, err := conn.Read(buf)
				if n > 0 {
					start := time.Now()
					s.pause()
					s.count(&s.tcpEchoes)
					s.observe(s.serTCP, start)
					if _, werr := conn.Write(buf[:n]); werr != nil {
						return
					}
				}
				if err != nil {
					return
				}
			}
		}()
	}
}

func (s *Server) serveUDPEcho() {
	buf := make([]byte, 65535)
	for {
		n, addr, err := s.udpConn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		start := time.Now()
		s.pause()
		s.count(&s.udpEchoes)
		payload := make([]byte, n)
		copy(payload, buf[:n])
		s.observe(s.serUDP, start)
		_, _ = s.udpConn.WriteToUDP(payload, addr)
	}
}
