// Package durable owns every durable write the daemon makes: an append-only
// record log (the job and delta journals), ReplaceFile for state files,
// ReplaceDir/RemoveDir for model, checkpoint and shard directories, and
// MkdirAll for the directories that hold them. Each makes its result
// survive an OS crash or power cut, not only a killed process: contents are
// fsync'd before a rename puts them in place, and the parent directory is
// fsync'd after every rename or create. Every write, fsync, truncate,
// rename and mkdir goes through one seam (sys), which the tests replace to
// record the order of the steps and to fail any one of them.
package durable

import (
	"bufio"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

type fileSystem interface {
	write(f *os.File, b []byte) (int, error)
	sync(f *os.File) error
	truncate(f *os.File, size int64) error
	rename(from, to string) error
	mkdir(dir string) error
	syncDir(dir string) error
}

type osFS struct{}

func (osFS) write(f *os.File, b []byte) (int, error) { return f.Write(b) }
func (osFS) sync(f *os.File) error                   { return f.Sync() }
func (osFS) truncate(f *os.File, size int64) error   { return f.Truncate(size) }
func (osFS) rename(from, to string) error            { return os.Rename(from, to) }
func (osFS) mkdir(dir string) error                  { return os.Mkdir(dir, 0o755) }
func (osFS) syncDir(dir string) error                { return syncFile(dir, osFS{}.sync) }

var sys fileSystem = osFS{}

// syncFile opens path read-only and fsyncs it through sync.
func syncFile(path string, sync func(*os.File) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = sync(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

type seamWriter struct{ f *os.File }

func (w seamWriter) Write(b []byte) (int, error) { return sys.write(w.f, b) }

// hidden names a dot-prefixed sibling of path: directory scans that skip
// hidden names never load a staging, temporary or trash entry.
func hidden(path, suffix string) string {
	return filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+suffix)
}

// MkdirAll creates dir and every missing parent, as os.MkdirAll does, and
// fsyncs the parent of each directory it creates, so a directory that a
// first write makes survives a power cut with what is later put in it.
// Existing directories are left alone. If a step fails, the directory that
// step made is removed again, so a retry creates and fsyncs it afresh.
func MkdirAll(dir string) error {
	var missing []string
	for d := filepath.Clean(dir); ; d = filepath.Dir(d) {
		fi, err := os.Stat(d)
		if err == nil {
			if !fi.IsDir() {
				return &fs.PathError{Op: "mkdir", Path: d, Err: syscall.ENOTDIR}
			}
			break
		}
		if !os.IsNotExist(err) || filepath.Dir(d) == d {
			return err
		}
		missing = append(missing, d)
	}
	for i := len(missing) - 1; i >= 0; i-- {
		d := missing[i]
		if err := sys.mkdir(d); err != nil {
			if os.IsExist(err) {
				continue // made meanwhile by another creator, which fsyncs it
			}
			return err
		}
		if err := sys.syncDir(filepath.Dir(d)); err != nil {
			os.Remove(d)
			return err
		}
	}
	return nil
}

// ReplaceFile replaces path with what write produces: a temporary sibling
// is written, fsync'd and renamed over path, then the parent is fsync'd. A
// failure before the rename leaves path as it was; if only the final fsync
// fails, path holds the whole new file, which a power cut may undo. Callers
// serialize replaces of one path.
func ReplaceFile(path string, write func(w io.Writer) error) error {
	tmp := hidden(path, ".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(seamWriter{f}, 1<<16)
	if err = write(bw); err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = sys.sync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = sys.rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return sys.syncDir(filepath.Dir(path))
}

// ReplaceDir replaces the directory dir with one write builds in a staging
// sibling: every file and directory in it is fsync'd, dir is renamed to
// dir.old, the staging dir to dir, the parent is fsync'd, and dir.old is
// removed. A failure at any step leaves dir as it was. A crash between the
// renames leaves only dir.old, which Recover brings back. Callers serialize
// replaces of one dir.
func ReplaceDir(dir string, write func(tmp string) error) error {
	dir = filepath.Clean(dir)
	parent, old, tmp := filepath.Dir(dir), dir+".old", hidden(dir, ".new")
	if err := MkdirAll(parent); err != nil {
		return err
	}
	if err := Recover(dir); err != nil {
		return err
	}
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.Mkdir(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := write(tmp); err != nil {
		return err
	}
	if err := syncTree(tmp); err != nil {
		return err
	}
	_, err := os.Stat(dir)
	hadOld := err == nil
	if hadOld {
		if err := sys.rename(dir, old); err != nil {
			return err
		}
	}
	// On a failure, put the previous dir back. The restoring renames are
	// best effort: the caller needs the first error, and a dir.old left
	// behind is what Recover repairs.
	if err = sys.rename(tmp, dir); err == nil {
		if err = sys.syncDir(parent); err != nil {
			_ = sys.rename(dir, tmp)
		}
	}
	if err != nil {
		if hadOld {
			_ = sys.rename(old, dir)
		}
		return err
	}
	return os.RemoveAll(old)
}

// syncTree fsyncs every directory and regular file under root.
func syncTree(root string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir():
			return sys.syncDir(path)
		case d.Type().IsRegular():
			return syncFile(path, sys.sync)
		}
		return nil
	})
}

// Recover repairs a ReplaceDir that a crash cut between its two renames: if
// dir is missing, dir.old is renamed back; if both exist, the swap had
// finished and dir.old is removed. Run it only while no ReplaceDir of dir is
// running.
func Recover(dir string) error {
	dir = filepath.Clean(dir)
	old := dir + ".old"
	if _, err := os.Stat(old); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	if _, err := os.Stat(dir); err == nil {
		return os.RemoveAll(old)
	}
	if err := sys.rename(old, dir); err != nil {
		return err
	}
	return sys.syncDir(filepath.Dir(dir))
}

// RemoveDir deletes dir without ever leaving it half deleted under its own
// name: it is renamed to a hidden trash sibling, the parent is fsync'd, and
// the trash is removed. A failed step leaves dir in place; a missing dir is
// not an error. Sweep clears the trash a crash leaves.
func RemoveDir(dir string) error {
	dir = filepath.Clean(dir)
	trash := hidden(dir, ".trash")
	if err := os.RemoveAll(trash); err != nil {
		return err
	}
	if err := sys.rename(dir, trash); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	if err := sys.syncDir(filepath.Dir(dir)); err != nil {
		_ = sys.rename(trash, dir) // best effort; Sweep clears a leftover
		return err
	}
	return os.RemoveAll(trash)
}

// Sweep removes the staging and trash directories that crashed ReplaceDir
// and RemoveDir calls left in parent. Run it only while none is running
// there, as when a store opens.
func Sweep(parent string) error {
	entries, err := os.ReadDir(parent)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, ".") && (strings.HasSuffix(name, ".new") || strings.HasSuffix(name, ".trash")) {
			if err := os.RemoveAll(filepath.Join(parent, name)); err != nil {
				return err
			}
		}
	}
	return nil
}
