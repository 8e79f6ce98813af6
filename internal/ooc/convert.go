package ooc

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"aoadmm/internal/tensor"
)

// ConvertOptions configures a conversion.
type ConvertOptions struct {
	// MemBudgetBytes bounds the converter's working memory: sort chunks are
	// sized to a third of it (the chunk, its run-file buffer, and slack) and
	// the default shard target derives from it. <= 0 means 256 MiB.
	MemBudgetBytes int64
	// TargetShardBytes sizes shards. <= 0 derives MemBudgetBytes/6, so that
	// at solve time a double-buffered shard pair plus the current shard's
	// CSF working set (~1.7x the shard) stays well inside the same budget.
	// Shards cut only at mode-0 index boundaries, so a single mode-0 slice
	// larger than the target yields one oversized shard.
	TargetShardBytes int64
	// TmpDir holds external-sort run files (default: outDir + ".tmp").
	TmpDir string
	// Coalesce sums duplicate coordinates into one record instead of keeping
	// both. Duplicates are additive under MTTKRP but would double-count in
	// the stored NormSq, so merged streams (base tensor + delta batches) must
	// convert with Coalesce set. The header's nnz/normSq then reflect the
	// post-coalesce records.
	Coalesce bool
}

func (o ConvertOptions) fill(outDir string) ConvertOptions {
	if o.MemBudgetBytes <= 0 {
		o.MemBudgetBytes = 256 << 20
	}
	if o.TargetShardBytes <= 0 {
		o.TargetShardBytes = o.MemBudgetBytes / 6
	}
	if o.TmpDir == "" {
		o.TmpDir = outDir + ".tmp"
	}
	return o
}

// ConvertCOO shards an in-memory tensor (datasets, generators). The tensor
// is not modified; records still pass through the external sorter so the
// on-disk result is identical to a file conversion.
func ConvertCOO(t *tensor.COO, outDir string, opts ConvertOptions) (*ShardedTensor, error) {
	c, err := newConverter(t.Dims, outDir, opts)
	if err != nil {
		return nil, err
	}
	c.ensureChunk(t.NNZ()) // the record count is known: no growth copies
	coord := make([]int32, t.Order())
	for p := 0; p < t.NNZ(); p++ {
		for m := range coord {
			coord[m] = t.Inds[m][p]
		}
		if err := c.add(coord, t.Vals[p]); err != nil {
			c.abort()
			return nil, err
		}
	}
	return c.finish()
}

// ConvertFile shards a ".tns" or ".aotn" file, streaming it under the memory
// budget: the input is read once, sorted in budget-sized chunks spilled as
// run files, and k-way merged into mode-0-range-partitioned shards.
func ConvertFile(path, outDir string, opts ConvertOptions) (*ShardedTensor, error) {
	if strings.HasSuffix(path, ".aotn") {
		return convertAOTN(path, outDir, opts)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Dims are inferred during the streaming pass, so the converter starts
	// dimensionless and learns the shape from the records themselves.
	var c *converter
	_, _, err = tensor.StreamTNS(f, nil, func(coord []int32, val float64) error {
		if c == nil {
			var cerr error
			if c, cerr = newConverter(nil, outDir, opts); cerr != nil {
				return cerr
			}
			c.order = len(coord)
		}
		return c.add(coord, val)
	})
	if err != nil {
		if c != nil {
			c.abort()
		}
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("ooc: %s: empty input", path)
	}
	return c.finish()
}

// convertAOTN streams an AOTN file through the converter (dims are declared
// in its header, so indices were already validated by the reader).
func convertAOTN(path, outDir string, opts ConvertOptions) (*ShardedTensor, error) {
	var c *converter
	_, _, err := tensor.StreamBinaryFile(path, func(coord []int32, val float64) error {
		if c == nil {
			var cerr error
			if c, cerr = newConverter(nil, outDir, opts); cerr != nil {
				return cerr
			}
			c.order = len(coord)
		}
		return c.add(coord, val)
	})
	if err != nil {
		if c != nil {
			c.abort()
		}
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("ooc: %s: empty input", path)
	}
	return c.finish()
}

// Converter is the exported streaming conversion handle: callers push
// records one at a time (e.g. a base tensor followed by delta batches) and
// Finish sorts, optionally coalesces, and shards them. Dims must be declared
// up front; records are validated against them on Add.
type Converter struct {
	c *converter
}

// NewConverter opens a streaming conversion into outDir.
func NewConverter(dims []int, outDir string, opts ConvertOptions) (*Converter, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("ooc: converter needs declared dims")
	}
	c, err := newConverter(dims, outDir, opts)
	if err != nil {
		return nil, err
	}
	return &Converter{c: c}, nil
}

// Add pushes one record (0-based coords). The coord slice is copied.
func (cv *Converter) Add(coord []int32, val float64) error {
	return cv.c.add(coord, val)
}

// Finish sorts/merges everything pushed so far into shards and opens the
// resulting store. The Converter is spent afterwards.
func (cv *Converter) Finish() (*ShardedTensor, error) {
	return cv.c.finish()
}

// Abort discards temporary sort state after a failed conversion. The partly
// written outDir is left for the caller to remove (it owns the directory).
func (cv *Converter) Abort() {
	cv.c.abort()
}

// converter accumulates records into a budget-sized chunk, spilling sorted
// run files, and merges them into shards at finish.
type converter struct {
	outDir string
	opts   ConvertOptions

	order  int
	dims   []int // declared dims (nil = infer from maxIdx)
	maxIdx []int32
	nnz    int64
	normSq float64

	chunkCap  int
	chunkInds [][]int32
	chunkVals []float64
	runs      []string
}

// recordBytes is one record's in-memory and run-file footprint.
func recordBytes(order int) int64 { return int64(4*order + 8) }

func newConverter(dims []int, outDir string, opts ConvertOptions) (*converter, error) {
	if IsShardDir(outDir) {
		return nil, fmt.Errorf("ooc: %s already holds a sharded tensor", outDir)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	c := &converter{
		outDir: outDir,
		opts:   opts.fill(outDir),
		dims:   append([]int(nil), dims...),
	}
	if dims != nil {
		c.order = len(dims)
	}
	return c, nil
}

// initialChunkRecs is the sort chunk's first allocation, in records.
const initialChunkRecs = 1024

// ensureChunk sets up the sort chunk once the order is known. The chunk
// spills at chunkCap records (a third of the budget) but starts at the
// expected record count — initialChunkRecs when unknown (hint 0) — and grows
// geometrically toward that cap, so a small conversion does not commit the
// budget's whole share.
func (c *converter) ensureChunk(hint int) {
	if c.chunkInds != nil {
		return
	}
	capRecs := int(c.opts.MemBudgetBytes / (3 * recordBytes(c.order)))
	if capRecs < 64 {
		capRecs = 64
	}
	c.chunkCap = capRecs
	c.chunkInds = make([][]int32, c.order)
	c.growChunk(min(capRecs, max(hint, initialChunkRecs)))
	c.maxIdx = make([]int32, c.order)
}

// growChunk reallocates the chunk to hold n records, keeping its contents.
func (c *converter) growChunk(n int) {
	for m := range c.chunkInds {
		c.chunkInds[m] = append(make([]int32, 0, n), c.chunkInds[m]...)
	}
	c.chunkVals = append(make([]float64, 0, n), c.chunkVals...)
}

// add appends one record (0-based coords), spilling the chunk when full.
func (c *converter) add(coord []int32, val float64) error {
	if c.order == 0 {
		c.order = len(coord)
	}
	if len(coord) != c.order {
		return fmt.Errorf("ooc: record of order %d in order-%d stream", len(coord), c.order)
	}
	if math.IsNaN(val) || math.IsInf(val, 0) {
		return fmt.Errorf("ooc: non-zero %d has non-finite value %v", c.nnz, val)
	}
	c.ensureChunk(0)
	if n := len(c.chunkVals); n == cap(c.chunkVals) {
		c.growChunk(min(2*n, c.chunkCap))
	}
	for m, idx := range coord {
		if idx < 0 || (c.dims != nil && int(idx) >= c.dims[m]) {
			return fmt.Errorf("ooc: non-zero %d mode %d index %d out of range", c.nnz, m, idx)
		}
		if idx > c.maxIdx[m] {
			c.maxIdx[m] = idx
		}
		c.chunkInds[m] = append(c.chunkInds[m], idx)
	}
	c.chunkVals = append(c.chunkVals, val)
	c.normSq += val * val
	c.nnz++
	if len(c.chunkVals) >= c.chunkCap {
		return c.spill()
	}
	return nil
}

// chunkSorter sorts the chunk's parallel arrays in place, lexicographically
// with mode 0 most significant — no index permutation or copy needed.
type chunkSorter struct{ c *converter }

func (s chunkSorter) Len() int { return len(s.c.chunkVals) }
func (s chunkSorter) Less(a, b int) bool {
	for _, col := range s.c.chunkInds {
		if col[a] != col[b] {
			return col[a] < col[b]
		}
	}
	return false
}
func (s chunkSorter) Swap(a, b int) {
	for _, col := range s.c.chunkInds {
		col[a], col[b] = col[b], col[a]
	}
	s.c.chunkVals[a], s.c.chunkVals[b] = s.c.chunkVals[b], s.c.chunkVals[a]
}

func (c *converter) sortChunk() { sort.Sort(chunkSorter{c}) }

// spill sorts the current chunk and writes it as a row-wise run file.
func (c *converter) spill() error {
	if len(c.chunkVals) == 0 {
		return nil
	}
	c.sortChunk()
	if err := os.MkdirAll(c.opts.TmpDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(c.opts.TmpDir, fmt.Sprintf("run-%05d.bin", len(c.runs)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	rec := make([]byte, recordBytes(c.order))
	for p := range c.chunkVals {
		off := 0
		for m := 0; m < c.order; m++ {
			binary.LittleEndian.PutUint32(rec[off:], uint32(c.chunkInds[m][p]))
			off += 4
		}
		binary.LittleEndian.PutUint64(rec[off:], math.Float64bits(c.chunkVals[p]))
		if _, err := bw.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	c.runs = append(c.runs, path)
	for m := range c.chunkInds {
		c.chunkInds[m] = c.chunkInds[m][:0]
	}
	c.chunkVals = c.chunkVals[:0]
	return nil
}

// abort removes temporary state after a failed conversion.
func (c *converter) abort() {
	os.RemoveAll(c.opts.TmpDir)
}

// finish sorts/merges everything into shards and writes the header.
func (c *converter) finish() (*ShardedTensor, error) {
	defer os.RemoveAll(c.opts.TmpDir)
	if c.nnz == 0 {
		return nil, fmt.Errorf("ooc: empty input")
	}
	dims := c.dims
	if dims == nil {
		dims = make([]int, c.order)
		for m := range dims {
			dims[m] = int(c.maxIdx[m]) + 1
		}
	}

	w := &shardWriter{
		dir:      c.outDir,
		order:    c.order,
		target:   c.opts.TargetShardBytes,
		coalesce: c.opts.Coalesce,
	}
	w.reset()

	var err error
	if len(c.runs) == 0 {
		// Single chunk: sort and shard directly, no run files.
		c.sortChunk()
		coord := make([]int32, c.order)
		for p := range c.chunkVals {
			for m := range coord {
				coord[m] = c.chunkInds[m][p]
			}
			if err = w.add(coord, c.chunkVals[p]); err != nil {
				return nil, err
			}
		}
	} else {
		// Spill the final partial chunk, then k-way merge all runs.
		if err = c.spill(); err != nil {
			return nil, err
		}
		if err = mergeRuns(c.runs, c.order, w); err != nil {
			return nil, err
		}
	}
	if err = w.close(int64(dims[0])); err != nil {
		return nil, err
	}

	nnz, normSq := c.nnz, c.normSq
	if c.opts.Coalesce {
		// Duplicates were summed inside the writer; the converter's running
		// totals count pre-coalesce records, so take the writer's.
		nnz, normSq = w.outNNZ, w.outNormSq
	}
	h := &Header{Dims: dims, NNZ: nnz, NormSq: normSq, Shards: w.shards}
	hpath := filepath.Join(c.outDir, HeaderFileName)
	if err := os.WriteFile(hpath, EncodeHeader(h), 0o644); err != nil {
		return nil, err
	}
	return Open(c.outDir)
}

// runReader streams one sorted run file record by record.
type runReader struct {
	br    *bufio.Reader
	f     *os.File
	rec   []byte
	coord []int32
	val   float64
	done  bool
}

func openRun(path string, order int) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := &runReader{
		f:     f,
		br:    bufio.NewReaderSize(f, 1<<16),
		rec:   make([]byte, recordBytes(order)),
		coord: make([]int32, order),
	}
	return r, r.next()
}

func (r *runReader) next() error {
	if _, err := io.ReadFull(r.br, r.rec); err != nil {
		if err == io.EOF {
			r.done = true
			return nil
		}
		return err
	}
	off := 0
	for m := range r.coord {
		r.coord[m] = int32(binary.LittleEndian.Uint32(r.rec[off:]))
		off += 4
	}
	r.val = math.Float64frombits(binary.LittleEndian.Uint64(r.rec[off:]))
	return nil
}

// runHeap is a min-heap of run readers keyed by their current record.
type runHeap []*runReader

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(a, b int) bool {
	ca, cb := h[a].coord, h[b].coord
	for m := range ca {
		if ca[m] != cb[m] {
			return ca[m] < cb[m]
		}
	}
	return false
}
func (h runHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *runHeap) Push(x any)   { *h = append(*h, x.(*runReader)) }
func (h *runHeap) Pop() (x any) { old := *h; n := len(old); x = old[n-1]; *h = old[:n-1]; return }

// mergeRuns k-way merges sorted runs into the shard writer.
func mergeRuns(runs []string, order int, w *shardWriter) error {
	h := make(runHeap, 0, len(runs))
	defer func() {
		for _, r := range h {
			r.f.Close()
		}
	}()
	for _, path := range runs {
		r, err := openRun(path, order)
		if err != nil {
			return err
		}
		if r.done {
			r.f.Close()
			continue
		}
		h = append(h, r)
	}
	heap.Init(&h)
	for h.Len() > 0 {
		r := h[0]
		if err := w.add(r.coord, r.val); err != nil {
			return err
		}
		if err := r.next(); err != nil {
			return err
		}
		if r.done {
			r.f.Close()
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	return nil
}

// shardWriter buffers sorted records and flushes mode-0-aligned shards.
type shardWriter struct {
	dir      string
	order    int
	target   int64
	coalesce bool

	inds      [][]int32
	vals      []float64
	lo        int64
	shards    []ShardInfo
	outNNZ    int64
	outNormSq float64
}

func (w *shardWriter) reset() {
	w.inds = make([][]int32, w.order)
}

// add appends one record, cutting a shard first when the buffer has reached
// the target size and the incoming record starts a new mode-0 index (shards
// never split a mode-0 slice).
func (w *shardWriter) add(coord []int32, val float64) error {
	n := len(w.vals)
	if w.coalesce && n > 0 && w.sameAsLast(coord) {
		// Sorted input puts duplicates adjacently, and a flush only cuts on a
		// mode-0 change, so equal coords never straddle a shard boundary.
		w.vals[n-1] += val
		return nil
	}
	if n > 0 && int64(n)*recordBytes(w.order) >= w.target && coord[0] != w.inds[0][n-1] {
		if err := w.flush(int64(coord[0])); err != nil {
			return err
		}
	}
	for m, idx := range coord {
		w.inds[m] = append(w.inds[m], idx)
	}
	w.vals = append(w.vals, val)
	return nil
}

// sameAsLast reports whether coord equals the last buffered record's coords.
func (w *shardWriter) sameAsLast(coord []int32) bool {
	n := len(w.vals)
	for m, idx := range coord {
		if w.inds[m][n-1] != idx {
			return false
		}
	}
	return true
}

// flush writes the buffered records as one CRC'd shard covering [lo, hi).
func (w *shardWriter) flush(hi int64) error {
	nnz := len(w.vals)
	if nnz == 0 {
		return nil
	}
	// Post-coalesce totals accumulate here, where the records are final.
	w.outNNZ += int64(nnz)
	for _, v := range w.vals {
		w.outNormSq += v * v
	}
	path := filepath.Join(w.dir, ShardFileName(len(w.shards)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sum := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(f, sum), 1<<16)
	for m := 0; m < w.order; m++ {
		if err := binary.Write(bw, binary.LittleEndian, w.inds[m]); err != nil {
			f.Close()
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, w.vals); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	w.shards = append(w.shards, ShardInfo{
		NNZ: int64(nnz),
		Lo:  w.lo,
		Hi:  hi,
		CRC: sum.Sum32(),
	})
	w.lo = hi
	for m := range w.inds {
		w.inds[m] = w.inds[m][:0]
	}
	w.vals = w.vals[:0]
	return nil
}

// close flushes the final shard, extending its range to the full mode-0 dim
// so the shard ranges partition [0, dims[0]).
func (w *shardWriter) close(dim0 int64) error {
	return w.flush(dim0)
}
