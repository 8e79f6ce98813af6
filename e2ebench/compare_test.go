package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"unchanged", steady, []float64{101, 100, 99, 102, 100, 100, 98}, "lower", verdictOK},
		{"slower beyond bound", steady, []float64{115, 116, 114, 115, 117, 113, 115}, "lower", verdictRegression},
		{"slower within bound", steady, []float64{105, 106, 104, 105, 107, 103, 105}, "lower", verdictOK},
		{"throughput drop", steady, []float64{85, 86, 84, 85, 87, 83, 85}, "higher", verdictRegression},
		{"throughput gain", steady, []float64{115, 116, 114, 115, 117, 113, 115}, "higher", verdictOK},
		{"noisy", steady, []float64{80, 120, 100, 140, 60, 100, 90}, "lower", verdictUnresolved},
		{"noisy but every run better", []float64{100, 130, 115, 160, 100}, []float64{50, 60, 70, 80, 90}, "lower", verdictBetter},
		{"missing", steady, nil, "lower", verdictMissing},
	} {
		if got := verdict(c.a, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// A gain needs nine tenths of the seed-paired runs won and a median shift
// larger than the parent's own quartile spread.
func TestGainClaimed(t *testing.T) {
	parent := map[int64]float64{}
	faster := map[int64]float64{}
	for s := int64(1); s <= 10; s++ {
		parent[s] = 100 + float64(s%3)
		faster[s] = 90 + float64(s%3)
	}
	if wins, pairs := pairWins(parent, faster, "lower"); wins != 10 || pairs != 10 {
		t.Fatalf("pairWins = %d/%d, want 10/10", wins, pairs)
	}
	if !gainClaimed(parent, faster, "lower") {
		t.Error("a 10% faster change winning every pair is a gain")
	}
	if gainClaimed(parent, faster, "higher") {
		t.Error("lower values are not a gain when higher is better")
	}
	// Eight wins of ten is not enough.
	mixed := map[int64]float64{}
	for s, v := range faster {
		mixed[s] = v
	}
	mixed[1], mixed[2] = 200, 200
	if gainClaimed(parent, mixed, "lower") {
		t.Error("8/10 pairs must not claim a gain")
	}
	// Winning every pair by less than the parent's spread is not a gain.
	tiny := map[int64]float64{}
	for s, v := range parent {
		tiny[s] = v - 0.01
	}
	if gainClaimed(parent, tiny, "lower") {
		t.Error("a shift inside the parent's spread must not claim a gain")
	}
}

func TestCompareReportsRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seconds ...string) string {
		var b strings.Builder
		for i, s := range seconds {
			b.WriteString(`{"workload":"fit-x","seed":` + strconv.Itoa(i+1) + `,"trace":0,"correct":true,"attempted":1,"failed":0,"metrics":{"task_s":{"value":` + s + `,"unit":"s"}}}` + "\n")
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"task_s","unit":"s","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a := write("a.jsonl", "1.00", "1.01", "0.99", "1.00", "1.02")
	b := write("b.jsonl", "1.01", "1.00", "0.99", "1.01", "1.00")
	var out bytes.Buffer
	if err := compareMain([]string{"--bench", spec, a, b}, &out); err != nil {
		t.Fatalf("same runs flagged: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "n=5") || !strings.Contains(out.String(), " ok ") {
		t.Errorf("missing median/quartiles/n or verdict:\n%s", out.String())
	}
	slow := write("c.jsonl", "1.30", "1.31", "1.29", "1.30", "1.32")
	if err := compareMain([]string{"--bench", spec, a, slow}, &out); err == nil {
		t.Errorf("30%% slower change passed:\n%s", out.String())
	}
}
