// Package faults injects deterministic, seeded network impairments into the
// simulated testbed: random and bursty loss, duplication, reordering,
// bounded jitter and a finite rate-limited queue with tail drop.
//
// An Impairment implements netsim.Impairer and is installed on a Link; the
// link consults it for every frame after the serialization point. All
// randomness comes from the Impairment's own seeded generator, never from
// the simulator's, so enabling a fault profile cannot perturb any other
// random draw in the run (browser costs, ISNs, ...) — and the Clean profile
// installs nothing at all, leaving the pre-impairment code path untouched.
// Same seed ⇒ same verdict sequence ⇒ byte-identical study exports.
package faults

import (
	"math/rand"
	"time"

	"github.com/browsermetric/browsermetric/internal/netsim"
	"github.com/browsermetric/browsermetric/internal/obs"
)

// GilbertElliott parameterizes the classic two-state bursty-loss channel:
// a Good state with rare loss and a Bad state with heavy loss, with
// per-frame transition probabilities between them. The stationary fraction
// of frames judged in the Bad state is GoodToBad/(GoodToBad+BadToGood) and
// the mean burst length is 1/BadToGood frames, so consecutive losses
// cluster — which is exactly what forces back-to-back retransmissions and
// RTO backoff in the TCP substrate.
type GilbertElliott struct {
	GoodToBad float64 // P(Good→Bad) evaluated per judged frame
	BadToGood float64 // P(Bad→Good) evaluated per judged frame
	LossGood  float64 // loss probability while Good
	LossBad   float64 // loss probability while Bad
}

// Params describes one direction-independent impairment configuration.
// The zero value impairs nothing (every frame passes untouched).
type Params struct {
	// Loss drops each frame independently with this probability. Ignored
	// when GE is set (the Gilbert–Elliott chain subsumes it).
	Loss float64
	// GE, when non-nil, selects bursty Gilbert–Elliott loss instead of
	// i.i.d. loss. Each link direction runs its own chain.
	GE *GilbertElliott
	// DupProb delivers an extra copy of the frame with this probability,
	// DupDelay after the original (default 200 µs when zero).
	DupProb  float64
	DupDelay time.Duration
	// ReorderProb holds a frame back by ReorderDelay with this
	// probability, letting later frames overtake it on the wire.
	ReorderProb  float64
	ReorderDelay time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) to every frame.
	Jitter time.Duration
	// Rate, when positive, drains frames through a bottleneck at this
	// many bits per second: frames queue behind earlier arrivals and pick
	// up the residual sojourn time as extra delay.
	Rate int64
	// QueueBytes bounds the bottleneck queue; a frame that would push the
	// occupancy past the bound is tail-dropped. Zero means unbounded.
	QueueBytes int
}

const defaultDupDelay = 200 * time.Microsecond

// Counters tallies every verdict the Impairment has issued.
type Counters struct {
	Judged     int64 // frames judged
	DropsLoss  int64 // frames dropped by random/bursty loss
	DropsQueue int64 // frames tail-dropped by the bottleneck queue
	Dups       int64 // frames duplicated
	Reorders   int64 // frames held back past a later frame
}

// sideState is the per-direction mutable state of the impairment: the
// Gilbert–Elliott chain position, the bottleneck drain horizon, and the
// recent delivery times used to measure realized reorder depth.
type sideState struct {
	bad       bool          // Gilbert–Elliott chain is in the Bad state
	busyUntil time.Duration // bottleneck queue drains at this virtual time
	pending   []time.Duration
}

// maxPending bounds the per-side delivery-time window kept for reorder-depth
// accounting; entries at or before "now" are pruned on every judgment first.
const maxPending = 128

// Impairment judges frames for one link. It is not safe for concurrent use;
// like everything else in the simulator it runs single-threaded per testbed.
type Impairment struct {
	p    Params
	rng  *rand.Rand
	met  *obs.Metrics
	side [2]sideState

	// Stats accumulates verdict counts; exported for tests and reports.
	Stats Counters
}

// New builds an Impairment with its own deterministic generator. met may be
// nil (counters still accumulate in Stats; only the obs export is skipped).
func New(p Params, seed int64, met *obs.Metrics) *Impairment {
	im := &Impairment{rng: rand.New(rand.NewSource(seed))}
	im.init(p, met)
	return im
}

// Reset returns im to the state New(p, seed, met) builds, keeping its
// generator and reorder-window storage.
func (im *Impairment) Reset(p Params, seed int64, met *obs.Metrics) {
	im.rng.Seed(seed)
	for i := range im.side {
		im.side[i] = sideState{pending: im.side[i].pending[:0]}
	}
	im.Stats = Counters{}
	im.init(p, met)
}

// init applies the parameters and registers the metric help texts.
func (im *Impairment) init(p Params, met *obs.Metrics) {
	if p.DupProb > 0 && p.DupDelay == 0 {
		p.DupDelay = defaultDupDelay
	}
	im.p, im.met = p, met
	met.SetHelp("fault_frames", "Frames judged by the impairment layer.")
	met.SetHelp("fault_drops_loss", "Frames dropped by random or bursty loss.")
	met.SetHelp("fault_drops_queue", "Frames tail-dropped by the bottleneck queue.")
	met.SetHelp("fault_dups", "Frames delivered twice by duplication.")
	met.SetHelp("fault_reorders", "Frames held back past at least one later frame.")
	met.SetHelp("fault_queue_bytes", "Bottleneck queue occupancy at frame arrival (bytes).")
	met.SetHelp("fault_reorder_depth", "Frames already in flight that will overtake a held frame.")
	met.SetHelp("fault_extra_delay_ms", "Extra delay added per delivered frame (queue + jitter + holds).")
}

// Judge implements netsim.Impairer. The draw order is fixed — queue
// admission, loss, duplication, reorder, jitter — so the consumed random
// sequence is a pure function of the judged frame sequence, which the
// simulator already delivers in a deterministic order.
func (im *Impairment) Judge(side, size int, now, deliverAt time.Duration) netsim.Verdict {
	st := &im.side[side]
	im.Stats.Judged++
	im.met.Add("fault_frames", 1)

	// Bottleneck queue: the frame joins a FIFO drained at p.Rate. Its
	// extra delay is the residual backlog plus its own bottleneck
	// serialization; a full queue tail-drops it.
	var extra time.Duration
	if im.p.Rate > 0 {
		backlog := st.busyUntil - now
		if backlog < 0 {
			backlog = 0
		}
		occBytes := int(backlog.Seconds() * float64(im.p.Rate) / 8)
		im.met.Observe("fault_queue_bytes", float64(occBytes))
		if im.p.QueueBytes > 0 && occBytes+size > im.p.QueueBytes {
			im.Stats.DropsQueue++
			im.met.Add("fault_drops_queue", 1)
			return netsim.Verdict{Drop: true}
		}
		drain := time.Duration(int64(size) * 8 * int64(time.Second) / im.p.Rate)
		st.busyUntil = now + backlog + drain
		extra = backlog + drain
	}

	// Loss: bursty Gilbert–Elliott chain when configured, i.i.d. otherwise.
	if ge := im.p.GE; ge != nil {
		if st.bad {
			if im.rng.Float64() < ge.BadToGood {
				st.bad = false
			}
		} else if im.rng.Float64() < ge.GoodToBad {
			st.bad = true
		}
		pLoss := ge.LossGood
		if st.bad {
			pLoss = ge.LossBad
		}
		if pLoss > 0 && im.rng.Float64() < pLoss {
			im.Stats.DropsLoss++
			im.met.Add("fault_drops_loss", 1)
			return netsim.Verdict{Drop: true}
		}
	} else if im.p.Loss > 0 && im.rng.Float64() < im.p.Loss {
		im.Stats.DropsLoss++
		im.met.Add("fault_drops_loss", 1)
		return netsim.Verdict{Drop: true}
	}

	v := netsim.Verdict{}
	if im.p.DupProb > 0 && im.rng.Float64() < im.p.DupProb {
		v.Dup = true
		v.DupDelay = im.p.DupDelay
		im.Stats.Dups++
		im.met.Add("fault_dups", 1)
	}
	if im.p.ReorderProb > 0 && im.rng.Float64() < im.p.ReorderProb {
		extra += im.p.ReorderDelay
	}
	if im.p.Jitter > 0 {
		extra += time.Duration(im.rng.Int63n(int64(im.p.Jitter)))
	}
	v.Delay = extra
	im.met.Observe("fault_extra_delay_ms", float64(extra)/float64(time.Millisecond))

	// Reorder-depth accounting: against the frames still in flight on this
	// direction, count how many sent earlier will now arrive after us —
	// equivalently, after scheduling, how many frames this held frame let
	// overtake it. Depth is measured at judgment time, mirroring what a
	// capture at the receiver would replay.
	final := deliverAt + extra
	depth := 0
	keep := st.pending[:0]
	for _, t := range st.pending {
		if t <= now {
			continue // already delivered
		}
		keep = append(keep, t)
		if t > final {
			depth++
		}
	}
	st.pending = keep
	if len(st.pending) < maxPending {
		st.pending = append(st.pending, final)
	}
	if depth > 0 {
		im.Stats.Reorders++
		im.met.Add("fault_reorders", 1)
		im.met.Observe("fault_reorder_depth", float64(depth))
	}
	return v
}
