package ooc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
// an ALTO tensor, ready for the kernel.
func (s *ShardedTensor) loadALTO(i int) (*alto.Tensor, error) {
	raw, err := s.readShard(i)
	if err != nil {
		return nil, err
	}
	return decodeALTOShard(raw, s.layout, s.h.Shards[i], i)
}

// readShard reads shard i's payload and checks its length and CRC.
func (s *ShardedTensor) readShard(i int) ([]byte, error) {
	if i < 0 || i >= len(s.h.Shards) {
		return nil, fmt.Errorf("ooc: shard %d out of range [0, %d)", i, len(s.h.Shards))
	}
	info := s.h.Shards[i]
	raw, err := os.ReadFile(filepath.Join(s.dir, ShardFileName(i)))
	if err != nil {
		return nil, fmt.Errorf("ooc: %w", err)
	}
	if want := s.h.shardPayloadBytes(info.NNZ); int64(len(raw)) != want {
		return nil, fmt.Errorf("ooc: shard %d is %d bytes, want %d (torn write?)", i, len(raw), want)
	}
	if sum := crc32.ChecksumIEEE(raw); sum != info.CRC {
		return nil, fmt.Errorf("ooc: shard %d CRC mismatch (stored %08x, computed %08x)", i, info.CRC, sum)
	}
	return raw, nil
}

// decodeALTOShard parses a VersionALTO payload of info.NNZ non-zeros. The
// keys and values are decoded into fresh slices that the tensor then owns;
// alto.FromSorted checks key order, every mode's index against the dims and
// every value's finiteness in one pass that also records the interval
// bounds, and those bounds check mode 0 against the shard's [Lo, Hi).
func decodeALTOShard(raw []byte, l *alto.Layout, info ShardInfo, shard int) (*alto.Tensor, error) {
	nnz := int(info.NNZ)
	words := l.Words()
	if len(raw) != nnz*(8*words+8) {
		return nil, fmt.Errorf("ooc: shard %d payload is %d bytes, want %d", shard, len(raw), nnz*(8*words+8))
	}
	lo := decodeUint64s(raw, nnz)
	raw = raw[8*nnz:]
	var hi []uint64
	if words == 2 {
		hi = decodeUint64s(raw, nnz)
		raw = raw[8*nnz:]
	}
	vals := make([]float64, nnz)
	for p := range vals {
		vals[p] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*p:]))
	}
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

// decodeUint64s decodes the first n little-endian uint64 words of raw.
func decodeUint64s(raw []byte, n int) []uint64 {
	out := make([]uint64, n)
	for p := range out {
		out[p] = binary.LittleEndian.Uint64(raw[8*p:])
	}
	return out
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
