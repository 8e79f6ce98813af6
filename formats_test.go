package aoadmm

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aoadmm/internal/dist"
	"aoadmm/internal/serve"
)

// TestUnknownKernelFormatFailsLoudly feeds a retired format name ("probe")
// and a misspelling to every entry point that takes a kernel format. Each
// must refuse it with an error naming the offender and the known set — no
// entry point may fall back to CSF silently.
func TestUnknownKernelFormatFailsLoudly(t *testing.T) {
	x, err := GenerateUniform(GenOptions{Dims: []int{12, 13, 14}, NNZ: 300, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ConvertTensorToShards(x, t.TempDir(), ShardConvertOptions{TargetShardBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{DataDir: t.TempDir(), Workers: 1, QueueCap: 4, RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(10 * time.Second)
	})

	entryPoints := []struct {
		name string
		run  func(format string) error
	}{
		{"Factorize", func(f string) error {
			_, err := Factorize(x, Options{Rank: 3, MaxOuterIters: 1, KernelFormat: f})
			return err
		}},
		{"FactorizeOOC", func(f string) error {
			_, err := FactorizeOOC(st, Options{Rank: 3, MaxOuterIters: 1, KernelFormat: f})
			return err
		}},
		{"FactorizeALS", func(f string) error {
			_, err := FactorizeALS(x, ALSOptions{Rank: 3, MaxOuterIters: 1, KernelFormat: f})
			return err
		}},
		{"FactorizeALSOOC", func(f string) error {
			_, err := FactorizeALSOOC(st, ALSOptions{Rank: 3, MaxOuterIters: 1, KernelFormat: f})
			return err
		}},
		{"FactorizeHALS", func(f string) error {
			_, err := FactorizeHALS(x, HALSOptions{Rank: 3, MaxOuterIters: 1, KernelFormat: f})
			return err
		}},
		{"dist.NewLocalKernel", func(f string) error {
			_, err := dist.NewLocalKernel(x.Clone(), f, 3)
			return err
		}},
		{"POST /jobs", func(f string) error {
			body := `{"dataset":"patents","scale":"small","rank":3,"max_outer":1,"format":"` + f + `"}`
			resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var out struct{ Error string }
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST /jobs with format %q: status %d, want 400", f, resp.StatusCode)
			}
			return errors.New(out.Error)
		}},
	}
	for _, ep := range entryPoints {
		for _, format := range []string{"probe", "blcok-csf"} {
			err := ep.run(format)
			if err == nil {
				t.Errorf("%s accepted kernel format %q", ep.name, format)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, `"`+format+`"`) || !strings.Contains(msg, "csf, alto, auto") {
				t.Errorf("%s(%q): error does not name the offender and the known set: %v", ep.name, format, err)
			}
		}
	}
}
