// Package dist is the network twin of the storage robustness stack
// (DESIGN.md §11): it promotes internal/shard's partition boundary to a
// network boundary. A coordinator plans and routes a dataset locally
// with the exact shard seams, ships each halo-extended partition to a
// worker maxrsd over POST /shard/solve, and merges replies with the
// same exact K-way merge the in-process path uses — so a no-fault
// distributed solve is bit-identical to Options.Shards.
//
// The robustness stack mirrors internal/em's, layer for layer:
//
//   - Transport injects deterministic network faults (exact per-call
//     schedules plus seeded rate bands) below the retry layer, the way
//     em's fault injector sits below the Disk's counters.
//   - Worker calls are retried under em.RetryPolicy with the same
//     jittered capped-exponential backoff the Disk uses, honoring
//     typed transient-vs-permanent classification and Retry-After.
//   - Straggler shards are hedged: a budgeted duplicate call races the
//     original, first success wins, the loser's ctx is cancelled.
//   - Exhausted retries degrade gracefully: the coordinator solves the
//     lost shard locally from its halo-replicated partition file, or
//     fails typed (ErrShardUnavailable) with per-worker attribution —
//     never a hang, never a silently partial answer.
package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"strconv"

	"maxrs/internal/geom"
	"maxrs/internal/sweep"
)

// Wire paths and headers of the internal cluster protocol.
const (
	// PathSolve is the worker's shard-solve endpoint.
	PathSolve = "/v1/shard/solve"
	// PathReady is the readiness endpoint membership probes.
	PathReady = "/v1/readyz"
	// ChecksumHeader carries the lowercase-hex CRC32C of the message
	// body. Replies always set it; receivers that find it verify before
	// decoding, turning in-flight corruption into a typed transient
	// error instead of a silent wrong answer — the network twin of the
	// storage layer's block checksums.
	ChecksumHeader = "X-Maxrs-Crc32c"
)

// SolveRequest ships one halo-extended partition to a worker: the query
// rectangle, the shard's center slab and the shard's objects (halo
// copies included). The shard is self-contained — the worker needs no
// dataset state, so any ready worker can solve any shard, which is what
// makes retry, hedging, and reassignment safe.
type SolveRequest struct {
	W float64 `json:"w"`
	H float64 `json:"h"`
	// Slab is the center slab [Lo, Hi) the shard answers for. The outer
	// shards' slabs are unbounded. A request without one has the empty
	// slab [0, 0), which a worker rejects.
	Slab    Slab          `json:"slab"`
	Objects []geom.Object `json:"objects"`
}

// Slab is a center slab [Lo, Hi) on the wire.
type Slab struct {
	Lo Float `json:"lo"`
	Hi Float `json:"hi"`
}

// SlabOf returns the wire form of iv.
func SlabOf(iv geom.Interval) Slab { return Slab{Lo: Float(iv.Lo), Hi: Float(iv.Hi)} }

// Interval returns the slab as a geom.Interval.
func (s Slab) Interval() geom.Interval { return geom.Interval{Lo: float64(s.Lo), Hi: float64(s.Hi)} }

// SolveReply is a worker's answer for one shard: the shard's optimum over
// the centers of its slab, the slab it solved, echoed back, and the I/O
// the solve cost on the worker's private disk. A worker that predates the
// slab field echoes none, and the coordinator refuses its answer.
type SolveReply struct {
	Sum    float64   `json:"sum"`
	Region geom.Rect `json:"region"`
	Slab   Slab      `json:"slab"`
	Reads  uint64    `json:"reads"`
	Writes uint64    `json:"writes"`
}

// Result converts the reply to the sweep result the merge consumes.
func (r SolveReply) Result() sweep.Result { return sweep.Result{Region: r.Region, Sum: r.Sum} }

// replyWire is SolveReply's JSON form. A shard's optimum can be
// unbounded (in an outer shard's slab, or a best strip that runs to
// infinity), and its sum can overflow, so every float travels as a Float.
type replyWire struct {
	Sum    Float `json:"sum"`
	Region struct {
		X, Y struct{ Lo, Hi Float }
	} `json:"region"`
	Slab   Slab   `json:"slab"`
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
}

// MarshalJSON implements json.Marshaler.
func (r SolveReply) MarshalJSON() ([]byte, error) {
	var w replyWire
	w.Sum, w.Slab, w.Reads, w.Writes = Float(r.Sum), r.Slab, r.Reads, r.Writes
	w.Region.X.Lo, w.Region.X.Hi = Float(r.Region.X.Lo), Float(r.Region.X.Hi)
	w.Region.Y.Lo, w.Region.Y.Hi = Float(r.Region.Y.Lo), Float(r.Region.Y.Hi)
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *SolveReply) UnmarshalJSON(b []byte) error {
	var w replyWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*r = SolveReply{
		Sum: float64(w.Sum),
		Region: geom.Rect{
			X: geom.Interval{Lo: float64(w.Region.X.Lo), Hi: float64(w.Region.X.Hi)},
			Y: geom.Interval{Lo: float64(w.Region.Y.Lo), Hi: float64(w.Region.Y.Hi)},
		},
		Slab:   w.Slab,
		Reads:  w.Reads,
		Writes: w.Writes,
	}
	return nil
}

// Float is a float64 whose JSON form also carries the values a JSON
// number cannot: ±Inf and NaN travel as the strings "+Inf", "-Inf" and
// "NaN". Finite values stay plain numbers. It is the one encoding of a
// possibly non-finite float on every JSON surface: the shard wire here
// and maxrsd's query answers.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return json.Marshal(strconv.FormatFloat(v, 'g', -1, 64))
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float) UnmarshalJSON(b []byte) error {
	if len(b) == 0 || b[0] != '"' {
		return json.Unmarshal(b, (*float64)(f))
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(math.IsInf(v, 0) || math.IsNaN(v)) {
		return fmt.Errorf("dist: %q is not +Inf, -Inf or NaN", s)
	}
	*f = Float(v)
	return nil
}

// ErrBadChecksum marks a message body that failed ChecksumHeader
// verification — in-flight damage, not a malformed message. Receivers
// should answer it retryably (the sender's resend carries clean bytes),
// unlike a genuine decode error, which no retry will fix.
var ErrBadChecksum = errors.New("dist: body failed checksum verification")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the wire form of body's CRC32C.
func Checksum(body []byte) string { return fmt.Sprintf("%08x", crc32.Checksum(body, crcTable)) }

// DecodeRequest reads and decodes a solve request from an HTTP request
// body, verifying ChecksumHeader when the sender set it.
func DecodeRequest(r *http.Request) (SolveRequest, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return SolveRequest{}, fmt.Errorf("dist: read request: %w", err)
	}
	if want := r.Header.Get(ChecksumHeader); want != "" && want != Checksum(body) {
		return SolveRequest{}, fmt.Errorf("dist: request: %w", ErrBadChecksum)
	}
	var req SolveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return SolveRequest{}, fmt.Errorf("dist: decode request: %w", err)
	}
	return req, nil
}

// EncodeRequest marshals a solve request and returns the body plus the
// checksum header value to send with it.
func EncodeRequest(req SolveRequest) (body []byte, checksum string, err error) {
	body, err = json.Marshal(req)
	if err != nil {
		return nil, "", fmt.Errorf("dist: encode request: %w", err)
	}
	return body, Checksum(body), nil
}

// WriteReply marshals reply and writes it with the checksum header set,
// so the coordinator can detect in-flight corruption.
func WriteReply(w http.ResponseWriter, reply SolveReply) error {
	body, err := json.Marshal(reply)
	if err != nil {
		return fmt.Errorf("dist: encode reply: %w", err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(ChecksumHeader, Checksum(body))
	_, err = w.Write(body)
	return err
}

// decodeReply verifies the reply body against ChecksumHeader (when set)
// and decodes it. A checksum mismatch is a transient fault: the bytes
// were damaged in flight, a retry rereads a clean reply.
func decodeReply(header http.Header, body []byte) (SolveReply, error) {
	if want := header.Get(ChecksumHeader); want != "" && want != Checksum(body) {
		return SolveReply{}, markTransient(fmt.Errorf("%w: reply: %v", ErrNetFault, ErrBadChecksum))
	}
	var reply SolveReply
	if err := json.Unmarshal(body, &reply); err != nil {
		// A truncated or garbled reply that happens to carry no checksum
		// header still must not kill the shard: decode failures are
		// in-flight damage until retries say otherwise.
		return SolveReply{}, markTransient(fmt.Errorf("%w: decode reply: %v", ErrNetFault, err))
	}
	return reply, nil
}

// readBody drains a response body, tolerating nothing: any read error
// (mid-stream disconnect, injected or real) surfaces to the caller.
func readBody(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}
