package kruskal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"aoadmm/internal/dense"
)

// WriteMatrixText writes one factor matrix as whitespace-separated text,
// one row per line.
func WriteMatrixText(w io.Writer, m *dense.Matrix) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if j > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMatrixText parses a whitespace-separated text matrix.
func ReadMatrixText(r io.Reader) (*dense.Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var rows [][]float64
	cols := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if cols == -1 {
			cols = len(fields)
		} else if len(fields) != cols {
			return nil, fmt.Errorf("kruskal: line %d has %d columns, want %d", line, len(fields), cols)
		}
		row := make([]float64, cols)
		for j, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("kruskal: line %d column %d: %v", line, j+1, err)
			}
			row[j] = v
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("kruskal: empty matrix")
	}
	return dense.FromRows(rows), nil
}

// Save writes the Kruskal tensor under dir as mode<N>.txt files plus an
// optional lambda.txt, creating dir if needed.
func (k *Tensor) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeMatrices(dir, "mode", k.Factors); err != nil {
		return err
	}
	if k.Lambda != nil {
		file, err := os.Create(filepath.Join(dir, "lambda.txt"))
		if err != nil {
			return err
		}
		for _, l := range k.Lambda {
			if _, err := fmt.Fprintf(file, "%g\n", l); err != nil {
				file.Close()
				return err
			}
		}
		if err := file.Close(); err != nil {
			return err
		}
	}
	return nil
}

// writeMatrices writes ms under dir as <prefix>0.txt, <prefix>1.txt, ....
func writeMatrices(dir, prefix string, ms []*dense.Matrix) error {
	for m, f := range ms {
		if f == nil {
			return fmt.Errorf("kruskal: %s %d is nil", prefix, m)
		}
		file, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s%d.txt", prefix, m)))
		if err != nil {
			return err
		}
		err = WriteMatrixText(file, f)
		if cerr := file.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// readMatrices reads <prefix>0.txt, <prefix>1.txt, ... under dir, up to the
// first missing one.
func readMatrices(dir, prefix string) ([]*dense.Matrix, error) {
	var ms []*dense.Matrix
	for m := 0; ; m++ {
		path := filepath.Join(dir, fmt.Sprintf("%s%d.txt", prefix, m))
		file, err := os.Open(path)
		if err != nil {
			return ms, nil
		}
		f, err := ReadMatrixText(file)
		file.Close()
		if err != nil {
			return nil, fmt.Errorf("kruskal: %s: %w", path, err)
		}
		ms = append(ms, f)
	}
}

// Load reads a Kruskal tensor previously written by Save. The order is
// inferred from the mode<N>.txt files present (consecutive from 0). The
// loaded model is validated (shared rank, lambda length, finite entries)
// before being returned, so corrupt or hand-edited directories fail here
// with a descriptive error instead of panicking later in At or FMS.
func Load(dir string) (*Tensor, error) {
	factors, err := readMatrices(dir, "mode")
	if err != nil {
		return nil, err
	}
	if len(factors) == 0 {
		return nil, fmt.Errorf("kruskal: no mode0.txt in %s", dir)
	}
	k := &Tensor{Factors: factors}
	if file, err := os.Open(filepath.Join(dir, "lambda.txt")); err == nil {
		defer file.Close()
		sc := bufio.NewScanner(file)
		for sc.Scan() {
			text := strings.TrimSpace(sc.Text())
			if text == "" {
				continue
			}
			v, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, fmt.Errorf("kruskal: lambda.txt: %v", err)
			}
			k.Lambda = append(k.Lambda, v)
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("kruskal: invalid model in %s: %w", dir, err)
	}
	return k, nil
}
