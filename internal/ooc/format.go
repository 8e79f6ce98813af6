// Package ooc implements the out-of-core tensor pipeline: a sharded on-disk
// tensor format (the ".aoshard" directory), a streaming converter that builds
// sorted shards from arbitrary-size inputs via external merge sort under a
// configurable memory budget, a shard-at-a-time MTTKRP engine with background
// prefetch, and the memory-admission estimator that decides when a tensor
// must leave RAM.
//
// The design follows the streamed partial-MTTKRP approach of Nguyen et al.
// ("Efficient, Out-of-Memory Sparse MTTKRP on Massively Parallel
// Architectures"): the tensor is range-partitioned along mode 0 into binary
// shards stored in one mode-agnostic linearized order (ALTO, package alto),
// so every output mode streams the same shards straight into the ALTO kernel
// with no per-shard build, while a background goroutine prefetches the next
// shard so I/O overlaps compute. Each shard's product is added into the
// output in place.
package ooc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"aoadmm/internal/alto"
)

// On-disk layout of an ".aoshard" directory:
//
//	header.aosh      binary header (EncodeHeader), self-CRC'd
//	shard-00000.aosd shard payloads, one per ShardInfo, each CRC'd
//	shard-00001.aosd ...
//
// The header's version fixes every payload's layout:
//
//   - Version 2 (what the converter writes): the non-zeros in ascending ALTO
//     key order under the header's key layout (dims, BlockBits). nnz
//     little-endian uint64 low key words, then nnz high key words when
//     KeyWords is 2, then nnz little-endian float64 values.
//   - Version 1 (still read; written for tensors whose key would exceed
//     alto.MaxKeyBits): the non-zeros sorted lexicographically (mode 0 most
//     significant); for each mode, nnz little-endian int32 indices, then nnz
//     little-endian float64 values.
//
// The payload CRC lives in the header's ShardInfo so a torn or bit-rotted
// shard is detected at load time.
const (
	headerMagic = "AOSH"

	// HeaderFileName is the header's file name inside a shard directory.
	HeaderFileName = "header.aosh"

	// Decoder plausibility bounds: a corrupt header must fail fast, not
	// drive giant allocations.
	maxOrder  = 16
	maxShards = 1 << 20
	maxNNZ    = 1 << 40
	maxDim    = 1 << 31
)

// Payload versions.
const (
	// VersionColumns stores N int32 index columns in lexicographic order.
	VersionColumns = 1
	// VersionALTO stores linearized ALTO keys in key order.
	VersionALTO = 2
)

// ShardFileName returns the canonical file name of shard i.
func ShardFileName(i int) string { return fmt.Sprintf("shard-%05d.aosd", i) }

// ShardInfo is one shard's metadata: its non-zero count, its half-open
// mode-0 index range [Lo, Hi) — shards partition [0, Dims[0]) in ascending
// order — and the CRC32 (IEEE) of its payload file.
type ShardInfo struct {
	NNZ int64
	Lo  int64
	Hi  int64
	CRC uint32
}

// Header describes a sharded tensor: global shape, total non-zero count, the
// precomputed squared Frobenius norm (so solvers need no extra data pass),
// and per-shard metadata.
type Header struct {
	// Version is the payload layout, VersionColumns or VersionALTO; zero
	// encodes as VersionColumns.
	Version int
	// BlockBits and KeyWords pin a VersionALTO key layout: the interleave's
	// block width and the key's uint64 word count (1, or 2 past 64 key bits).
	// Both are zero under VersionColumns.
	BlockBits int
	KeyWords  int

	Dims   []int
	NNZ    int64
	NormSq float64
	Shards []ShardInfo
}

// Order returns the number of modes.
func (h *Header) Order() int { return len(h.Dims) }

// version returns the payload version, reading zero as VersionColumns.
func (h *Header) version() int {
	if h.Version == 0 {
		return VersionColumns
	}
	return h.Version
}

// shardPayloadBytes is the exact byte length of a shard payload with the
// given nnz under the header's version.
func (h *Header) shardPayloadBytes(nnz int64) int64 {
	if h.version() == VersionALTO {
		return nnz * int64(8*h.KeyWords+8)
	}
	return nnz * int64(4*h.Order()+8)
}

const shardEntryBytes = 8 + 8 + 8 + 4 // nnz, lo, hi, crc

// headerBytes is the exact encoded length of a header: version 2 adds the
// key layout (block bits, key words) after the fixed fields.
func headerBytes(version, order, nshards int) int {
	n := 4 + 4 + 4 + 4 + 8 + 8 + 8*order + shardEntryBytes*nshards + 4
	if version == VersionALTO {
		n += 4 + 4
	}
	return n
}

// EncodeHeader serializes the header, appending a CRC32 of the preceding
// bytes so torn header writes are detected at open time.
func EncodeHeader(h *Header) []byte {
	v := h.version()
	buf := make([]byte, 0, headerBytes(v, h.Order(), len(h.Shards)))
	buf = append(buf, headerMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Order()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(h.Shards)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.NNZ))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.NormSq))
	if v == VersionALTO {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(h.BlockBits))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(h.KeyWords))
	}
	for _, d := range h.Dims {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d))
	}
	for _, s := range h.Shards {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.NNZ))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Lo))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Hi))
		buf = binary.LittleEndian.AppendUint32(buf, s.CRC)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// DecodeHeader parses and validates an encoded header. Corrupt input — bad
// magic, implausible sizes, inconsistent shard ranges, a mismatched CRC —
// returns a descriptive error; it never panics and never allocates
// proportionally to untrusted length fields.
func DecodeHeader(b []byte) (*Header, error) {
	const fixed = 4 + 4 + 4 + 4 + 8 + 8
	if len(b) < fixed+4 {
		return nil, fmt.Errorf("ooc: header truncated (%d bytes)", len(b))
	}
	if string(b[:4]) != headerMagic {
		return nil, fmt.Errorf("ooc: bad header magic %q (want %q)", b[:4], headerMagic)
	}
	version := binary.LittleEndian.Uint32(b[4:])
	if version != VersionColumns && version != VersionALTO {
		return nil, fmt.Errorf("ooc: unsupported header version %d", version)
	}
	order := binary.LittleEndian.Uint32(b[8:])
	nshards := binary.LittleEndian.Uint32(b[12:])
	nnz := binary.LittleEndian.Uint64(b[16:])
	normSq := math.Float64frombits(binary.LittleEndian.Uint64(b[24:]))
	if order < 1 || order > maxOrder {
		return nil, fmt.Errorf("ooc: implausible order %d", order)
	}
	if nshards < 1 || nshards > maxShards {
		return nil, fmt.Errorf("ooc: implausible shard count %d", nshards)
	}
	if nnz == 0 || nnz > maxNNZ {
		return nil, fmt.Errorf("ooc: implausible nnz %d", nnz)
	}
	if math.IsNaN(normSq) || math.IsInf(normSq, 0) || normSq < 0 {
		return nil, fmt.Errorf("ooc: implausible norm² %v", normSq)
	}
	want := headerBytes(int(version), int(order), int(nshards))
	if len(b) != want {
		return nil, fmt.Errorf("ooc: header is %d bytes, want %d for order %d with %d shards",
			len(b), want, order, nshards)
	}
	if got, sum := binary.LittleEndian.Uint32(b[len(b)-4:]), crc32.ChecksumIEEE(b[:len(b)-4]); got != sum {
		return nil, fmt.Errorf("ooc: header CRC mismatch (stored %08x, computed %08x)", got, sum)
	}

	h := &Header{
		Version: int(version),
		Dims:    make([]int, order),
		NNZ:     int64(nnz),
		NormSq:  normSq,
		Shards:  make([]ShardInfo, nshards),
	}
	off := fixed
	if version == VersionALTO {
		h.BlockBits = int(binary.LittleEndian.Uint32(b[off:]))
		h.KeyWords = int(binary.LittleEndian.Uint32(b[off+4:]))
		off += 8
	}
	for m := range h.Dims {
		d := binary.LittleEndian.Uint64(b[off:])
		if d == 0 || d > maxDim {
			return nil, fmt.Errorf("ooc: implausible dim %d for mode %d", d, m)
		}
		h.Dims[m] = int(d)
		off += 8
	}
	var sum int64
	prevHi := int64(0)
	for i := range h.Shards {
		s := ShardInfo{
			NNZ: int64(binary.LittleEndian.Uint64(b[off:])),
			Lo:  int64(binary.LittleEndian.Uint64(b[off+8:])),
			Hi:  int64(binary.LittleEndian.Uint64(b[off+16:])),
			CRC: binary.LittleEndian.Uint32(b[off+24:]),
		}
		off += shardEntryBytes
		if s.NNZ <= 0 || s.NNZ > h.NNZ {
			return nil, fmt.Errorf("ooc: shard %d has implausible nnz %d", i, s.NNZ)
		}
		if s.Lo != prevHi || s.Hi <= s.Lo || s.Hi > int64(h.Dims[0]) {
			return nil, fmt.Errorf("ooc: shard %d range [%d, %d) does not partition [0, %d) after %d",
				i, s.Lo, s.Hi, h.Dims[0], prevHi)
		}
		prevHi = s.Hi
		sum += s.NNZ
		h.Shards[i] = s
	}
	if prevHi != int64(h.Dims[0]) {
		return nil, fmt.Errorf("ooc: shard ranges end at %d, want dim %d", prevHi, h.Dims[0])
	}
	if sum != h.NNZ {
		return nil, fmt.Errorf("ooc: shard nnz sum %d != header nnz %d", sum, h.NNZ)
	}
	if version == VersionALTO {
		if _, err := h.keyLayout(); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// keyLayout rebuilds a VersionALTO header's key layout from its dims and
// block bits, and checks the recorded key word count against it.
func (h *Header) keyLayout() (*alto.Layout, error) {
	if h.BlockBits < 1 || h.BlockBits > 64 {
		return nil, fmt.Errorf("ooc: implausible key block bits %d", h.BlockBits)
	}
	l, err := alto.NewLayout(h.Dims, h.BlockBits)
	if err != nil {
		return nil, fmt.Errorf("ooc: key layout: %w", err)
	}
	if h.KeyWords != l.Words() {
		return nil, fmt.Errorf("ooc: header records %d key words, dims %v need %d", h.KeyWords, h.Dims, l.Words())
	}
	return l, nil
}
