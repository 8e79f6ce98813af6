package durable

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

var errInjected = errors.New("injected")

// step is one call through the seam: the operation and the base name of the
// file or directory it acted on.
type step struct{ op, name string }

// recorder is the fake seam: it logs every step, fails the ones fail picks
// with errInjected, and otherwise calls the real file system. A failed write
// still writes the first half of its buffer, as a short write on a full disk
// would.
type recorder struct {
	real  fileSystem
	steps []step
	fail  func(i int, s step) bool
}

func (r *recorder) record(op, path string) error {
	s := step{op, filepath.Base(path)}
	r.steps = append(r.steps, s)
	if r.fail != nil && r.fail(len(r.steps)-1, s) {
		return errInjected
	}
	return nil
}

func (r *recorder) write(f *os.File, b []byte) (int, error) {
	if err := r.record("write", f.Name()); err != nil {
		n, _ := r.real.write(f, b[:len(b)/2])
		return n, err
	}
	return r.real.write(f, b)
}

func (r *recorder) sync(f *os.File) error {
	if err := r.record("sync", f.Name()); err != nil {
		return err
	}
	return r.real.sync(f)
}

func (r *recorder) truncate(f *os.File, size int64) error {
	if err := r.record("truncate", f.Name()); err != nil {
		return err
	}
	return r.real.truncate(f, size)
}

func (r *recorder) rename(from, to string) error {
	if err := r.record("rename", from+"->"+filepath.Base(to)); err != nil {
		return err
	}
	return r.real.rename(from, to)
}

func (r *recorder) mkdir(dir string) error {
	if err := r.record("mkdir", dir); err != nil {
		return err
	}
	return r.real.mkdir(dir)
}

func (r *recorder) syncDir(dir string) error {
	if err := r.record("syncdir", dir); err != nil {
		return err
	}
	return r.real.syncDir(dir)
}

// swapSeam installs r as the seam for the rest of the test.
func swapSeam(t testing.TB, r *recorder) *recorder {
	r.real = osFS{}
	sys = r
	t.Cleanup(func() { sys = osFS{} })
	return r
}

// failAt fails exactly the i-th step.
func failAt(i int) func(int, step) bool {
	return func(j int, _ step) bool { return i == j }
}
