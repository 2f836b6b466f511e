// Package shard is the distributed sweep runner: a coordinator process
// partitions the sweep's cell matrix into shards (rendezvous-hashed over
// cell content addresses, so the assignment is a pure function of the
// sweep configuration), leases shards to worker processes over a small
// framed control protocol, and — once every shard is done — replays the
// whole sweep warm from the shared content-addressed cache, producing a
// CSV/report byte-identical to a single-process run.
//
// Design rules, inherited from the fleet plane and the sweep cache:
//
//   - coordination stays off the per-cell compute path: the control
//     protocol exchanges shard numbers and lease renewals, never cell
//     configs or samples (workers re-derive the cell list from the same
//     sweep options, verified by the sweep configuration ID at Hello);
//   - every message travels in the shared internal/frame codec (length-
//     prefixed, CRC-32C over header and payload), so a torn stream or
//     bit flip is a counted rejection at the frame boundary, never a
//     misparsed lease;
//   - worker death is survivable by construction: per-cell cache files
//     are content-addressed, self-checking and written temp-then-rename,
//     so a reassigned shard replays the dead worker's completed cells
//     from the cache instead of recomputing them, and the final output
//     cannot depend on which worker computed what.
//
// Frame (see internal/frame): magic "bmsh", version Version, kind the
// message type; the payload is the per-type encoding below in the frame
// package's payload grammar, read back through its strict Reader.
package shard

import (
	"encoding/binary"
	"fmt"
	"time"

	"github.com/browsermetric/browsermetric/internal/frame"
)

// Version is the control-protocol version this package speaks.
const Version = 1

// codec frames control messages. They are tens of bytes; the 64 KiB cap
// keeps a corrupt length prefix from becoming an allocation bomb.
var codec = frame.Codec{Magic: [4]byte{'b', 'm', 's', 'h'}, Version: Version, MaxPayload: 1 << 16}

const (
	// maxName bounds a worker name; names are further restricted to
	// log-safe characters at Hello.
	maxName = 64
	// maxReason bounds a rejection reason string.
	maxReason = 512
	// sweepIDLen is the exact length of a sweep configuration ID
	// (lowercase hex SHA-256).
	sweepIDLen = 64
)

// MsgType enumerates the control messages.
type MsgType uint16

const (
	// MsgHello (worker→coordinator) opens a session: the worker's name
	// and the sweep configuration ID it derived from its flags.
	MsgHello MsgType = 1
	// MsgHelloAck (coordinator→worker) accepts or rejects the session.
	MsgHelloAck MsgType = 2
	// MsgLeaseReq (worker→coordinator) asks for a shard lease.
	MsgLeaseReq MsgType = 3
	// MsgLeaseGrant (coordinator→worker) leases one shard: the worker
	// re-derives the shard's cells from (shard, shards) locally.
	MsgLeaseGrant MsgType = 4
	// MsgNoWork (coordinator→worker) reports every shard is leased but
	// not all are done; retry after the hinted delay.
	MsgNoWork MsgType = 5
	// MsgAllDone (coordinator→worker) reports the sweep is complete; the
	// worker exits.
	MsgAllDone MsgType = 6
	// MsgRenew (worker→coordinator) extends a lease mid-shard.
	MsgRenew MsgType = 7
	// MsgRenewAck (coordinator→worker) confirms or revokes the lease.
	MsgRenewAck MsgType = 8
	// MsgShardDone (worker→coordinator) reports a completed shard with
	// its computed/cached cell counts.
	MsgShardDone MsgType = 9
	// MsgDoneAck (coordinator→worker) acknowledges MsgShardDone.
	MsgDoneAck MsgType = 10
)

// String names the message type for logs.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello-ack"
	case MsgLeaseReq:
		return "lease-req"
	case MsgLeaseGrant:
		return "lease-grant"
	case MsgNoWork:
		return "no-work"
	case MsgAllDone:
		return "all-done"
	case MsgRenew:
		return "renew"
	case MsgRenewAck:
		return "renew-ack"
	case MsgShardDone:
		return "shard-done"
	case MsgDoneAck:
		return "done-ack"
	}
	return fmt.Sprintf("shard.MsgType(%d)", uint16(t))
}

// Msg is one decoded control message. Which fields are meaningful
// depends on Type; encoding writes only the fields the type defines, so
// stray fields can never leak onto the wire.
type Msg struct {
	Type MsgType

	// Name and SweepID travel in MsgHello.
	Name    string
	SweepID string
	// OK rides MsgHelloAck / MsgRenewAck / MsgDoneAck; Reason explains a
	// rejection (MsgHelloAck only).
	OK     bool
	Reason string
	// Shard/Shards identify a shard of a fixed partition count
	// (MsgLeaseGrant, MsgRenew, MsgShardDone; Shards also in MsgHelloAck).
	Shard  uint32
	Shards uint32
	// TTL is the lease duration (MsgLeaseGrant); Retry the no-work
	// backoff hint (MsgNoWork).
	TTL   time.Duration
	Retry time.Duration
	// Done counts cells finished so far in the renewed shard (MsgRenew).
	// Computed/Cached are the completed shard's counts (MsgShardDone).
	Done             uint32
	Computed, Cached uint32
}

// AppendMsg appends the canonical encoding of m to b.
func AppendMsg(b []byte, m *Msg) ([]byte, error) {
	b, start := codec.Begin(b, uint16(m.Type))
	switch m.Type {
	case MsgHello:
		if len(m.Name) == 0 || len(m.Name) > maxName {
			return nil, fmt.Errorf("shard: worker name %q out of range", m.Name)
		}
		if len(m.SweepID) != sweepIDLen {
			return nil, fmt.Errorf("shard: sweep ID length %d, want %d", len(m.SweepID), sweepIDLen)
		}
		b = frame.AppendString(b, m.Name)
		b = frame.AppendString(b, m.SweepID)
	case MsgHelloAck:
		if len(m.Reason) > maxReason {
			return nil, fmt.Errorf("shard: reason too long")
		}
		b = frame.AppendBool(b, m.OK)
		b = frame.AppendString(b, m.Reason)
		b = binary.LittleEndian.AppendUint32(b, m.Shards)
	case MsgLeaseReq, MsgAllDone:
		// empty payload
	case MsgLeaseGrant:
		b = binary.LittleEndian.AppendUint32(b, m.Shard)
		b = binary.LittleEndian.AppendUint32(b, m.Shards)
		b = binary.LittleEndian.AppendUint64(b, uint64(m.TTL))
	case MsgNoWork:
		b = binary.LittleEndian.AppendUint64(b, uint64(m.Retry))
	case MsgRenew:
		b = binary.LittleEndian.AppendUint32(b, m.Shard)
		b = binary.LittleEndian.AppendUint32(b, m.Done)
	case MsgRenewAck, MsgDoneAck:
		b = frame.AppendBool(b, m.OK)
	case MsgShardDone:
		b = binary.LittleEndian.AppendUint32(b, m.Shard)
		b = binary.LittleEndian.AppendUint32(b, m.Computed)
		b = binary.LittleEndian.AppendUint32(b, m.Cached)
	default:
		return nil, fmt.Errorf("shard: cannot encode message type %v", m.Type)
	}
	return codec.Seal(b, start)
}

// DecodeMsg parses the first control frame in b and returns it with the
// number of bytes consumed. Errors wrap the internal/frame sentinels:
// ErrTruncated (incomplete input), ErrVersion (intact frame of another
// version; consumed reports the full frame length so a stream can skip
// it) or ErrCorrupt.
func DecodeMsg(b []byte) (*Msg, int, error) {
	typ, payload, n, err := codec.Decode(b)
	if err != nil {
		return nil, n, err
	}
	m, err := decodePayload(MsgType(typ), payload)
	if err != nil {
		return nil, 0, err
	}
	return m, n, nil
}

func decodePayload(typ MsgType, p []byte) (*Msg, error) {
	r := frame.NewReader(p)
	m := &Msg{Type: typ}
	switch typ {
	case MsgHello:
		m.Name, m.SweepID = r.String(maxName), r.String(sweepIDLen)
	case MsgHelloAck:
		m.OK, m.Reason, m.Shards = r.Bool(), r.String(maxReason), r.U32()
	case MsgLeaseReq, MsgAllDone:
		// empty payload
	case MsgLeaseGrant:
		m.Shard, m.Shards, m.TTL = r.U32(), r.U32(), time.Duration(r.U64())
	case MsgNoWork:
		m.Retry = time.Duration(r.U64())
	case MsgRenew:
		m.Shard, m.Done = r.U32(), r.U32()
	case MsgRenewAck, MsgDoneAck:
		m.OK = r.Bool()
	case MsgShardDone:
		m.Shard, m.Computed, m.Cached = r.U32(), r.U32(), r.U32()
	default:
		return nil, fmt.Errorf("%w: unknown message type %d", frame.ErrCorrupt, uint16(typ))
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("%v: %w", typ, err)
	}
	switch {
	case typ == MsgHello && (m.Name == "" || len(m.SweepID) != sweepIDLen):
		return nil, fmt.Errorf("%w: hello name %q, sweep ID length %d", frame.ErrCorrupt, m.Name, len(m.SweepID))
	case uint64(m.TTL) > uint64(time.Hour) || uint64(m.Retry) > uint64(time.Hour):
		return nil, fmt.Errorf("%w: %v duration out of range", frame.ErrCorrupt, typ)
	case typ == MsgLeaseGrant && m.Shard >= m.Shards:
		return nil, fmt.Errorf("%w: grant shard %d of %d", frame.ErrCorrupt, m.Shard, m.Shards)
	}
	return m, nil
}
