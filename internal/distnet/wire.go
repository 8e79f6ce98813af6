// Package distnet is the distributed AO-ADMM engine: a coordinator/worker
// subsystem that runs the node-local steps of internal/dist on its workers
// and the reduce-scatter / allgather / Gram-allreduce collectives between
// them over TCP. The coordinator prices every collective with dist.Pricer,
// so a run reports its logical communication volume — and the inner-ADMM
// phase moves exactly zero bytes, the paper's §IV-B property. StartLocal
// runs a whole cluster in one process over loopback TCP; the package tests
// compare such runs bit for bit against a one-process reference loop.
//
// Placement reuses the out-of-core ".aoshard" mode-0 range partitions as
// the unit of work: the coordinator assigns each worker a contiguous mode-0
// range, and workers stream exactly the shards covering their range through
// the internal/ooc reader. Fault tolerance leans on the existing
// checkpoint machinery: workers heartbeat at the coordinator, a dead
// worker's range is reassigned to the survivors, and the job warm-restarts
// from the last checkpoint instead of failing. See docs/DISTRIBUTED.md for
// the wire-protocol spec, placement rules, and the recovery matrix.
package distnet

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire framing: every message is one length-prefixed, CRC'd binary frame.
//
//	magic   [4]byte  "AODN"
//	type    uint8    message type (msg* constants)
//	version uint8    protocol version (wireVersion)
//	_       [2]byte  reserved, must be zero
//	length  uint32   payload byte count, little-endian, <= max frame length
//	payload [length]byte
//	crc     uint32   CRC32 (IEEE) of header+payload, little-endian
//
// The CRC covers the header too, so a frame whose type or length was
// corrupted in flight is rejected even when the payload happens to check
// out. Decoding is hostile-input safe: implausible lengths fail before any
// allocation, and payload buffers grow incrementally so a truncated stream
// advertising a huge length allocates no more than the bytes that actually
// arrived (plus one chunk).
const (
	wireMagic   = "AODN"
	wireVersion = 1

	frameHeaderLen = 12
	frameCRCLen    = 4

	// DefaultMaxFrameLen bounds a frame payload (64 MiB): comfortably
	// above any factor broadcast this engine ships, far below anything
	// that could drive a hostile allocation.
	DefaultMaxFrameLen = 64 << 20

	// readChunk is the incremental payload allocation step.
	readChunk = 64 << 10
)

// Message types.
const (
	msgHello       = 1  // worker -> coordinator: join
	msgWelcome     = 2  // coordinator -> worker: id + heartbeat interval
	msgHeartbeat   = 3  // worker -> coordinator: liveness
	msgAssign      = 4  // coordinator -> worker: epoch assignment + state
	msgReady       = 5  // worker -> coordinator: shards loaded
	msgMTTKRPReq   = 6  // coordinator -> worker: compute partial for a mode
	msgPartial     = 7  // worker -> coordinator: sparse partial-MTTKRP rows
	msgADMMReq     = 8  // coordinator -> worker: owned K rows + Gram product
	msgFactorRows  = 9  // worker -> coordinator: updated factor + dual rows
	msgFactorBcast = 10 // coordinator -> worker: full updated factor
	msgDone        = 11 // coordinator -> worker: job finished, drop state
	msgError       = 12 // either: fatal condition, human-readable

	// Telemetry / tracing extensions. Heartbeats carry a piggybacked
	// telemetry payload (timestamp, counters); the ack echoes the
	// timestamp so the worker measures round-trip time and the
	// coordinator estimates per-worker clock offset. Span batches flow
	// worker -> coordinator once per traced job, pushed on Done.
	msgHeartbeatAck = 13 // coordinator -> worker: echo of heartbeat send time
	msgSpans        = 14 // worker -> coordinator: completed tracer span batch
)

// WriteFrame writes one frame. It returns the total bytes written so
// callers can account physical wire volume.
func WriteFrame(w io.Writer, typ byte, payload []byte) (int, error) {
	if len(payload) > DefaultMaxFrameLen {
		return 0, fmt.Errorf("distnet: frame payload %d exceeds max %d", len(payload), DefaultMaxFrameLen)
	}
	buf := make([]byte, 0, frameHeaderLen+len(payload)+frameCRCLen)
	buf = append(buf, wireMagic...)
	buf = append(buf, typ, wireVersion, 0, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	n, err := w.Write(buf)
	if err != nil {
		return n, fmt.Errorf("distnet: write frame: %w", err)
	}
	return n, nil
}

// ReadFrame reads and verifies one frame, returning its type, payload, and
// total bytes consumed. max bounds the accepted payload length (<= 0 means
// DefaultMaxFrameLen). Corrupt input — bad magic, unknown version, hostile
// length, truncation, CRC mismatch — returns an error; it never panics and
// never allocates proportionally to an untrusted length field beyond the
// bytes actually received.
func ReadFrame(r io.Reader, max int) (byte, []byte, int, error) {
	if max <= 0 {
		max = DefaultMaxFrameLen
	}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, 0, fmt.Errorf("distnet: frame header: %w", err)
	}
	if string(hdr[:4]) != wireMagic {
		return 0, nil, 0, fmt.Errorf("distnet: bad frame magic %q", hdr[:4])
	}
	typ := hdr[4]
	if v := hdr[5]; v != wireVersion {
		return 0, nil, 0, fmt.Errorf("distnet: unsupported protocol version %d", v)
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return 0, nil, 0, fmt.Errorf("distnet: non-zero reserved bytes")
	}
	length := binary.LittleEndian.Uint32(hdr[8:])
	if length > uint32(max) {
		return 0, nil, 0, fmt.Errorf("distnet: frame payload %d exceeds max %d", length, max)
	}
	// Incremental read: a truncated stream advertising a large length only
	// allocates what arrives.
	payload := make([]byte, 0, min(int(length), readChunk))
	for len(payload) < int(length) {
		n := min(int(length)-len(payload), readChunk)
		chunk := make([]byte, n)
		if _, err := io.ReadFull(r, chunk); err != nil {
			return 0, nil, 0, fmt.Errorf("distnet: frame payload truncated at %d of %d: %w",
				len(payload), length, err)
		}
		payload = append(payload, chunk...)
	}
	var crcBuf [frameCRCLen]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return 0, nil, 0, fmt.Errorf("distnet: frame CRC truncated: %w", err)
	}
	sum := crc32.ChecksumIEEE(hdr[:])
	sum = crc32.Update(sum, crc32.IEEETable, payload)
	if got := binary.LittleEndian.Uint32(crcBuf[:]); got != sum {
		return 0, nil, 0, fmt.Errorf("distnet: frame CRC mismatch (stored %08x, computed %08x)", got, sum)
	}
	return typ, payload, frameHeaderLen + len(payload) + frameCRCLen, nil
}
