package fleet

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/browsermetric/browsermetric/internal/fleetwire"
	"github.com/browsermetric/browsermetric/internal/obs"
)

// UplinkConfig tunes a collector's uplink to the root aggregator.
type UplinkConfig struct {
	// Node is this collector's name on the wire (required).
	Node string
	// URL is the root's ingest endpoint, e.g. http://root:9310/ingest.
	URL string
	// Metrics receives the fleet_uplink_* series. nil disables metering.
	Metrics *obs.Metrics
}

// uplinkTimeout bounds one POST attempt.
const uplinkTimeout = 5 * time.Second

// uplinkLimits bounds an uplink's buffering and retries.
type uplinkLimits struct {
	// queueDepth bounds the frames buffered while the root is
	// unreachable. Overflow drops the oldest frame — counted, never
	// blocking the fan-in tick that produced it.
	queueDepth int
	// backoff is the initial retry delay after a failed ship, doubling
	// up to maxBackoff.
	backoff, maxBackoff time.Duration
}

var defaultUplinkLimits = uplinkLimits{queueDepth: 64, backoff: 250 * time.Millisecond, maxBackoff: 10 * time.Second}

// Uplink ships fan-in tick deltas to the root aggregator as fleetwire
// frames. Sink never blocks: frames queue in a bounded buffer and a
// background shipper POSTs them with retry/backoff, dropping the oldest
// (counted) when the root stays unreachable. The collector's sample
// path and shard locks are never touched — the uplink only sees the
// already-coalesced tick deltas the fan-in pass hands it.
type Uplink struct {
	cfg    UplinkConfig
	lim    uplinkLimits
	client *http.Client
	// epoch is this process's boot id, stamped into every frame so the
	// root can tell a restart (new epoch, seq back at 1) from duplicate
	// delivery (same epoch, repeated seq).
	epoch uint64
	ready obs.Readiness

	mu    sync.Mutex
	queue [][]byte
	wake  chan struct{}

	stop chan struct{}
	done chan struct{}
}

// NewUplink builds an uplink and starts its shipper goroutine. Close it
// with Stop.
func NewUplink(cfg UplinkConfig) (*Uplink, error) { return newUplink(cfg, defaultUplinkLimits) }

func newUplink(cfg UplinkConfig, lim uplinkLimits) (*Uplink, error) {
	if cfg.Node == "" {
		return nil, fmt.Errorf("fleet: uplink requires a node name")
	}
	if cfg.URL == "" {
		return nil, fmt.Errorf("fleet: uplink requires a root URL")
	}
	registerUplinkHelp(cfg.Metrics)
	u := &Uplink{
		cfg:    cfg,
		lim:    lim,
		client: &http.Client{Timeout: uplinkTimeout},
		epoch:  uint64(time.Now().UnixNano()),
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go u.run()
	return u, nil
}

func registerUplinkHelp(m *obs.Metrics) {
	if !m.Enabled() {
		return
	}
	m.SetHelp("fleet_uplink_frames_total", "Tick-delta frames handed to the uplink.")
	m.SetHelp("fleet_uplink_shipped_total", "Frames acknowledged by the root aggregator.")
	m.SetHelp("fleet_uplink_bytes_total", "Frame bytes acknowledged by the root aggregator.")
	m.SetHelp("fleet_uplink_dropped_total", "Frames dropped: queue overflow while the root was unreachable, or a permanent root rejection.")
	m.SetHelp("fleet_uplink_retries_total", "Failed ship attempts that were retried with backoff.")
	m.SetHelp("fleet_uplink_queue", "Frames currently buffered awaiting shipment.")
}

// Sink is the Registry DeltaSink: it encodes the tick's deltas into one
// wire frame and enqueues it. It never blocks and never errors — a full
// queue drops the oldest frame and counts it.
func (u *Uplink) Sink(d TickDelta) {
	f := &fleetwire.Frame{Node: u.cfg.Node, Epoch: u.epoch, Seq: d.Seq, Sessions: uint64(d.Sessions)}
	f.Keys = make([]fleetwire.KeyDelta, 0, len(d.Keys))
	for _, k := range d.Keys {
		f.Keys = append(f.Keys, fleetwire.KeyDelta{
			Method: k.Key.Method, Browser: k.Key.Browser, Region: k.Key.Region,
			Count: k.Count, Lost: k.Lost,
			JitterSum: k.JitterSum, JitterN: k.JitterN,
			Sketch: k.Sketch,
		})
	}
	enc, err := fleetwire.AppendFrame(nil, f)
	if err != nil {
		// Only possible with malformed labels; count it as a drop rather
		// than wedging the fan-in pass.
		u.meterAdd("fleet_uplink_dropped_total", 1)
		return
	}
	u.mu.Lock()
	u.queue = append(u.queue, enc)
	var over int
	if over = len(u.queue) - u.lim.queueDepth; over > 0 {
		u.queue = append(u.queue[:0:0], u.queue[over:]...)
	}
	depth := len(u.queue)
	u.mu.Unlock()
	if over > 0 {
		u.meterAdd("fleet_uplink_dropped_total", int64(over))
	}
	u.meterAdd("fleet_uplink_frames_total", 1)
	u.meterSet("fleet_uplink_queue", float64(depth))
	select {
	case u.wake <- struct{}{}:
	default:
	}
}

// Ready reports whether the root has acknowledged at least one frame —
// the collector's /readyz condition in multi-node mode.
func (u *Uplink) Ready() bool { return u.ready.Ready() }

// Stop shuts the shipper down after one final best-effort flush.
func (u *Uplink) Stop() {
	close(u.stop)
	<-u.done
}

func (u *Uplink) takeAll() [][]byte {
	u.mu.Lock()
	q := u.queue
	u.queue = nil
	u.mu.Unlock()
	return q
}

// putBack restores unshipped frames to the queue head, keeping the
// depth bound by dropping the oldest.
func (u *Uplink) putBack(frames [][]byte) {
	u.mu.Lock()
	u.queue = append(frames, u.queue...)
	var over int
	if over = len(u.queue) - u.lim.queueDepth; over > 0 {
		u.queue = append(u.queue[:0:0], u.queue[over:]...)
	}
	depth := len(u.queue)
	u.mu.Unlock()
	if over > 0 {
		u.meterAdd("fleet_uplink_dropped_total", int64(over))
	}
	u.meterSet("fleet_uplink_queue", float64(depth))
}

func (u *Uplink) run() {
	defer close(u.done)
	backoff := u.lim.backoff
	for {
		select {
		case <-u.stop:
			u.ship(u.takeAll()) // final best-effort flush, no retry
			return
		case <-u.wake:
		}
		for {
			frames := u.takeAll()
			if len(frames) == 0 {
				break
			}
			err, permanent := u.ship(frames)
			if err == nil {
				backoff = u.lim.backoff
				continue
			}
			if permanent {
				// The root understood us and said no (corrupt or
				// version-mismatched by its lights): retrying the same
				// bytes cannot succeed.
				u.meterAdd("fleet_uplink_dropped_total", int64(len(frames)))
				backoff = u.lim.backoff
				continue
			}
			u.putBack(frames)
			u.meterAdd("fleet_uplink_retries_total", 1)
			select {
			case <-u.stop:
				u.ship(u.takeAll())
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > u.lim.maxBackoff {
				backoff = u.lim.maxBackoff
			}
		}
	}
}

// ship POSTs the frames as one concatenated body. It reports the error
// and whether it is permanent (a 4xx rejection) as opposed to retryable
// (network failure or 5xx).
func (u *Uplink) ship(frames [][]byte) (err error, permanent bool) {
	if len(frames) == 0 {
		return nil, false
	}
	var body bytes.Buffer
	for _, f := range frames {
		body.Write(f)
	}
	n := body.Len()
	req, err := http.NewRequest(http.MethodPost, u.cfg.URL, &body)
	if err != nil {
		return err, true
	}
	req.Header.Set("Content-Type", "application/x-bmwf")
	resp, err := u.client.Do(req)
	if err != nil {
		return err, false
	}
	resp.Body.Close()
	switch {
	case resp.StatusCode < 300:
		u.ready.MarkReady()
		u.meterAdd("fleet_uplink_shipped_total", int64(len(frames)))
		u.meterAdd("fleet_uplink_bytes_total", int64(n))
		u.meterSet("fleet_uplink_queue", float64(u.pending()))
		return nil, false
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return fmt.Errorf("fleet: root rejected frames: %s", resp.Status), true
	default:
		return fmt.Errorf("fleet: root unavailable: %s", resp.Status), false
	}
}

func (u *Uplink) pending() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.queue)
}

func (u *Uplink) meterAdd(name string, v int64) {
	if m := u.cfg.Metrics; m.Enabled() {
		m.Add(name, v)
	}
}

func (u *Uplink) meterSet(name string, v float64) {
	if m := u.cfg.Metrics; m.Enabled() {
		m.Set(name, v)
	}
}
