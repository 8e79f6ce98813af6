package ooc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"aoadmm/internal/alto"
	"aoadmm/internal/tensor"
)

// ShardedTensor is an opened ".aoshard" directory: the verified header plus
// the ability to load any shard individually. It holds no shard data itself —
// shards are loaded (and released) one at a time by the streaming engine.
type ShardedTensor struct {
	dir    string
	h      *Header
	layout *alto.Layout // VersionALTO key layout; nil under VersionColumns
}

// IsShardDir reports whether path looks like a shard directory (a directory
// containing a header file). It does not validate the header; Open does.
func IsShardDir(path string) bool {
	fi, err := os.Stat(path)
	if err != nil || !fi.IsDir() {
		return false
	}
	_, err = os.Stat(filepath.Join(path, HeaderFileName))
	return err == nil
}

// Open reads and verifies the header of a shard directory and stats every
// shard file so truncated or missing shards fail here rather than mid-solve.
// Shard payload CRCs are verified lazily, at LoadShard time.
func Open(dir string) (*ShardedTensor, error) {
	raw, err := os.ReadFile(filepath.Join(dir, HeaderFileName))
	if err != nil {
		return nil, fmt.Errorf("ooc: %w", err)
	}
	h, err := DecodeHeader(raw)
	if err != nil {
		return nil, fmt.Errorf("ooc: %s: %w", dir, err)
	}
	for i, s := range h.Shards {
		fi, err := os.Stat(filepath.Join(dir, ShardFileName(i)))
		if err != nil {
			return nil, fmt.Errorf("ooc: %s: %w", dir, err)
		}
		if want := h.shardPayloadBytes(s.NNZ); fi.Size() != want {
			return nil, fmt.Errorf("ooc: %s: shard %d is %d bytes, want %d (torn write?)",
				dir, i, fi.Size(), want)
		}
	}
	st := &ShardedTensor{dir: dir, h: h}
	if h.version() == VersionALTO {
		if st.layout, err = h.keyLayout(); err != nil {
			return nil, fmt.Errorf("ooc: %s: %w", dir, err)
		}
	}
	return st, nil
}

// Dir returns the shard directory path.
func (s *ShardedTensor) Dir() string { return s.dir }

// Order returns the number of modes.
func (s *ShardedTensor) Order() int { return s.h.Order() }

// Dims returns the global mode lengths (a copy).
func (s *ShardedTensor) Dims() []int { return append([]int(nil), s.h.Dims...) }

// NNZ returns the total non-zero count across shards.
func (s *ShardedTensor) NNZ() int64 { return s.h.NNZ }

// NormSq returns the squared Frobenius norm recorded at conversion time.
func (s *ShardedTensor) NormSq() float64 { return s.h.NormSq }

// NumShards returns the shard count.
func (s *ShardedTensor) NumShards() int { return len(s.h.Shards) }

// Shard returns shard i's metadata.
func (s *ShardedTensor) Shard(i int) ShardInfo { return s.h.Shards[i] }

// Version returns the shard payload version (VersionColumns or VersionALTO).
func (s *ShardedTensor) Version() int { return s.h.version() }

// String summarizes the sharded tensor.
func (s *ShardedTensor) String() string {
	return fmt.Sprintf("Sharded{dims=%v, nnz=%d, shards=%d}", s.h.Dims, s.h.NNZ, len(s.h.Shards))
}

// LoadShard reads, CRC-verifies, and decodes shard i into a COO tensor
// carrying the full global dims. Indices are global; the non-zeros come in
// the payload's stored order, which is ALTO key order under VersionALTO and
// lexicographic (mode 0 most significant) under VersionColumns. The returned
// tensor is owned by the caller; the CSF builder may sort it in place.
func (s *ShardedTensor) LoadShard(i int) (*tensor.COO, error) {
	if s.layout != nil {
		t, err := s.loadALTO(i)
		if err != nil {
			return nil, err
		}
		return t.ToCOO(), nil
	}
	raw, err := s.readShard(i)
	if err != nil {
		return nil, err
	}
	return decodeShard(raw, s.h, s.h.Shards[i], i)
}

// loadALTO reads, CRC-verifies and decodes VersionALTO shard i straight into
// an ALTO tensor, ready for the kernel. Keys and values are decoded from the
// file through one fixed buffer that also feeds the CRC, so the payload is
// never held whole beside them.
func (s *ShardedTensor) loadALTO(i int) (*alto.Tensor, error) {
	f, err := s.openShard(i)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info := s.h.Shards[i]
	p := newPayloadReader(f, s.h.shardPayloadBytes(info.NNZ))
	lo, hi, vals := readALTOPayload(p, s.layout.Words(), int(info.NNZ))
	if p.err != nil {
		return nil, fmt.Errorf("ooc: shard %d: %w", i, p.err)
	}
	if err := s.checkCRC(i, p.crc); err != nil {
		return nil, err
	}
	return buildALTOShard(s.layout, lo, hi, vals, info, i)
}

// openShard opens shard i's payload file and checks its length.
func (s *ShardedTensor) openShard(i int) (*os.File, error) {
	if i < 0 || i >= len(s.h.Shards) {
		return nil, fmt.Errorf("ooc: shard %d out of range [0, %d)", i, len(s.h.Shards))
	}
	f, err := os.Open(filepath.Join(s.dir, ShardFileName(i)))
	if err != nil {
		return nil, fmt.Errorf("ooc: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ooc: %w", err)
	}
	if want := s.h.shardPayloadBytes(s.h.Shards[i].NNZ); fi.Size() != want {
		f.Close()
		return nil, fmt.Errorf("ooc: shard %d is %d bytes, want %d (torn write?)", i, fi.Size(), want)
	}
	return f, nil
}

// checkCRC compares a shard payload's computed CRC with the header's.
func (s *ShardedTensor) checkCRC(i int, sum uint32) error {
	if stored := s.h.Shards[i].CRC; sum != stored {
		return fmt.Errorf("ooc: shard %d CRC mismatch (stored %08x, computed %08x)", i, stored, sum)
	}
	return nil
}

// readShard reads shard i's payload whole and checks its length and CRC.
func (s *ShardedTensor) readShard(i int) ([]byte, error) {
	f, err := s.openShard(i)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw := make([]byte, s.h.shardPayloadBytes(s.h.Shards[i].NNZ))
	if _, err := io.ReadFull(f, raw); err != nil {
		return nil, fmt.Errorf("ooc: shard %d: %w", i, err)
	}
	if err := s.checkCRC(i, crc32.ChecksumIEEE(raw)); err != nil {
		return nil, err
	}
	return raw, nil
}

// decodeALTOShard parses a VersionALTO payload of info.NNZ non-zeros held
// in memory, through loadALTO's decode and checks other than the CRC.
func decodeALTOShard(raw []byte, l *alto.Layout, info ShardInfo, shard int) (*alto.Tensor, error) {
	nnz := int(info.NNZ)
	if want := nnz * (8*l.Words() + 8); len(raw) != want {
		return nil, fmt.Errorf("ooc: shard %d payload is %d bytes, want %d", shard, len(raw), want)
	}
	lo, hi, vals := readALTOPayload(newPayloadReader(bytes.NewReader(raw), int64(len(raw))), l.Words(), nnz)
	return buildALTOShard(l, lo, hi, vals, info, shard)
}

// readALTOPayload decodes a VersionALTO payload of nnz non-zeros into fresh
// slices: the low key words, the high ones for two-word layouts, then the
// values. A read error sticks in p.err.
func readALTOPayload(p *payloadReader, words, nnz int) (lo, hi []uint64, vals []float64) {
	lo = make([]uint64, nnz)
	p.uint64s(lo)
	if words == 2 {
		hi = make([]uint64, nnz)
		p.uint64s(hi)
	}
	vals = make([]float64, nnz)
	p.float64s(vals)
	return lo, hi, vals
}

// buildALTOShard wraps decoded keys and values, which the tensor then owns.
// alto.FromSorted checks key order, every mode's index against the dims and
// every value's finiteness in one pass that also records the interval
// bounds, and those bounds check mode 0 against the shard's [Lo, Hi).
func buildALTOShard(l *alto.Layout, lo, hi []uint64, vals []float64, info ShardInfo, shard int) (*alto.Tensor, error) {
	t, err := alto.FromSorted(l, lo, hi, vals)
	if err != nil {
		return nil, fmt.Errorf("ooc: shard %d: %w", shard, err)
	}
	for iv := 0; iv < t.NumIntervals(); iv++ {
		if first, last := t.IntervalBounds(iv, 0); int64(first) < info.Lo || int64(last) >= info.Hi {
			return nil, fmt.Errorf("ooc: shard %d mode-0 indices [%d, %d] outside [%d, %d)",
				shard, first, last, info.Lo, info.Hi)
		}
	}
	return t, nil
}

// payloadReader reads a payload through a fixed-size buffer and keeps its
// CRC — the mirror of payloadWriter.
type payloadReader struct {
	r   io.Reader
	buf []byte // fixed length, a whole number of 8-byte words
	crc uint32
	err error
}

// newPayloadReader sizes the buffer to 64 KiB, or to a smaller payload.
func newPayloadReader(r io.Reader, size int64) *payloadReader {
	return &payloadReader{r: r, buf: make([]byte, min(1<<16, size)&^7)}
}

// next reads the bytes of up to want words, as many as the buffer holds.
// The first read error sticks and makes every later call return nil.
func (p *payloadReader) next(want int) []byte {
	if p.err != nil {
		return nil
	}
	b := p.buf[:8*min(want, len(p.buf)/8)]
	if _, p.err = io.ReadFull(p.r, b); p.err != nil {
		return nil
	}
	p.crc = crc32.Update(p.crc, crc32.IEEETable, b)
	return b
}

func (p *payloadReader) uint64s(xs []uint64) {
	for len(xs) > 0 {
		b := p.next(len(xs))
		if b == nil {
			return
		}
		for i := range len(b) / 8 {
			xs[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		xs = xs[len(b)/8:]
	}
}

func (p *payloadReader) float64s(xs []float64) {
	for len(xs) > 0 {
		b := p.next(len(xs))
		if b == nil {
			return
		}
		for i := range len(b) / 8 {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		xs = xs[len(b)/8:]
	}
}

// decodeShard parses a verified VersionColumns payload into a COO,
// validating every index against the header's dims and the shard's mode-0
// range.
func decodeShard(raw []byte, h *Header, info ShardInfo, shard int) (*tensor.COO, error) {
	order := h.Order()
	nnz := int(info.NNZ)
	t := &tensor.COO{
		Dims: append([]int(nil), h.Dims...),
		Inds: make([][]int32, order),
		Vals: make([]float64, nnz),
	}
	off := 0
	for m := 0; m < order; m++ {
		lo, hi := int32(0), int32(h.Dims[m])
		if m == 0 {
			lo, hi = int32(info.Lo), int32(info.Hi)
		}
		col := make([]int32, nnz)
		for p := range col {
			v := int32(binary.LittleEndian.Uint32(raw[off:]))
			if v < lo || v >= hi {
				return nil, fmt.Errorf("ooc: shard %d non-zero %d mode %d index %d outside [%d, %d)",
					shard, p, m, v, lo, hi)
			}
			col[p] = v
			off += 4
		}
		t.Inds[m] = col
	}
	for p := range t.Vals {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("ooc: shard %d non-zero %d has non-finite value %v", shard, p, v)
		}
		t.Vals[p] = v
		off += 8
	}
	return t, nil
}

// ReadAll loads every shard and concatenates them into one in-memory COO —
// a convenience for tools and tests working on tensors known to fit in RAM.
// The non-zeros come in the converter's canonical order whatever the payload
// version: lexicographic with mode 0 most significant, and equal coordinates
// in the order they were merged. (Each shard is a mode-0 range and the key
// sort is stable, so a stable per-shard sort restores that order exactly.)
func (s *ShardedTensor) ReadAll() (*tensor.COO, error) {
	out := tensor.NewCOO(s.h.Dims, int(s.h.NNZ))
	lex := make([]int, s.Order())
	for m := range lex {
		lex[m] = m
	}
	for i := range s.h.Shards {
		part, err := s.LoadShard(i)
		if err != nil {
			return nil, err
		}
		part.Sort(lex)
		for m := range out.Inds {
			out.Inds[m] = append(out.Inds[m], part.Inds[m]...)
		}
		out.Vals = append(out.Vals, part.Vals...)
	}
	return out, nil
}
