package durable

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Replay reads the log at path and passes each record through decode and
// then visit, in file order; a missing file replays as empty. A record is
// one newline-terminated line, and every log shares one corruption policy:
//   - a line decode rejects, or an unterminated final line, is bad;
//   - a bad final line is the torn tail of a crash mid-append and is dropped
//     silently;
//   - a bad line followed by another line is interior corruption: it is
//     skipped and reported in warns;
//   - a line too long (over 64 MiB) or unreadable ends the replay with a
//     warning.
//
// The line decode and visit see is valid only until they return. Replay
// fails only when path cannot be opened or visit fails: a log is a recovery
// path and must degrade, not abort.
func Replay[T any](path string, decode func(line []byte) (T, error), visit func(T) error) (warns []error, err error) {
	_, _, warns, err = replay(path, decode, visit)
	return warns, err
}

// replay is Replay that also returns the offset just past the last good
// record and the bytes read: anything between the two is torn tail.
func replay[T any](path string, decode func([]byte) (T, error), visit func(T) error) (good, size int64, warns []error, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, 0, nil, nil
	} else if err != nil {
		return 0, 0, nil, err
	}
	defer f.Close()
	name := filepath.Base(path)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i+1], nil
		} else if atEOF && len(data) > 0 {
			return len(data), data, nil // unterminated
		}
		return 0, nil, nil
	})
	var pending error // a bad line, reported once a later line proves it interior
	for n := 1; sc.Scan(); n++ {
		tok := sc.Bytes()
		size += int64(len(tok))
		line := bytes.TrimSpace(tok)
		if len(line) == 0 {
			continue
		}
		if pending != nil {
			warns, pending = append(warns, pending), nil
		}
		if tok[len(tok)-1] != '\n' {
			pending = fmt.Errorf("%s line %d: unterminated record", name, n)
			continue
		}
		rec, derr := decode(line)
		if derr != nil {
			pending = fmt.Errorf("%s line %d: %v", name, n, derr)
			continue
		}
		if err := visit(rec); err != nil {
			return good, size, warns, err
		}
		good = size
	}
	if err := sc.Err(); err != nil {
		if pending != nil {
			warns = append(warns, pending)
		}
		warns = append(warns, fmt.Errorf("%s: %v", name, err))
	}
	return good, size, warns, nil
}

// Log is an open append-only log. It is not safe for concurrent use:
// callers serialize Append, Rewrite and Close.
type Log struct {
	path string
	f    *os.File
	end  int64 // file size: where the next record starts
}

var errClosed = errors.New("durable: log closed")

// OpenLog replays the log at path (see Replay), truncates a torn tail so the
// next record starts a line of its own, and opens the log for appending. A
// missing log is created and its parent fsync'd. The next Append's fsync
// makes the truncation durable.
func OpenLog[T any](path string, decode func(line []byte) (T, error), visit func(T) error) (*Log, []error, error) {
	good, size, warns, err := replay(path, decode, visit)
	if err != nil {
		return nil, warns, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if os.IsNotExist(err) {
		if f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644); err == nil {
			if err = sys.syncDir(filepath.Dir(path)); err != nil {
				f.Close()
			}
		}
	}
	if err == nil && size > good {
		if err = sys.truncate(f, good); err != nil {
			f.Close()
		}
	}
	if err != nil {
		return nil, warns, err
	}
	return &Log{path: path, f: f, end: good}, warns, nil
}

// Append writes rec and a newline as one record, with one write and one
// fsync; beforeSync, when non-nil, runs between the two and its error fails
// the append like an fsync error. The record is durable once Append returns
// nil. On an error the file is truncated back to where the record started,
// so a rejected record never replays and never corrupts the next one; if
// that truncation fails too, the log closes. Append may use rec's spare
// capacity.
func (l *Log) Append(rec []byte, beforeSync func() error) error {
	if l.f == nil {
		return errClosed
	}
	line := append(rec, '\n')
	_, err := sys.write(l.f, line)
	if err == nil && beforeSync != nil {
		err = beforeSync()
	}
	if err == nil {
		err = sys.sync(l.f)
	}
	if err != nil {
		if sys.truncate(l.f, l.end) != nil {
			l.Close()
		}
		return err
	}
	l.end += int64(len(line))
	return nil
}

// Rewrite replaces the log with what write produces, through ReplaceFile,
// and reopens it for appending: this is how a log is compacted. A failed
// Rewrite leaves the log closed.
func (l *Log) Rewrite(write func(w io.Writer) error) error {
	l.Close()
	if err := ReplaceFile(l.path, write); err != nil {
		return err
	}
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if l.end, err = f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return err
	}
	l.f = f
	return nil
}

// Close stops further appends. Safe to call twice.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
