package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"aoadmm/internal/durable"
	"aoadmm/internal/faults"
)

// journalLine is one record of the write-ahead job journal: a versioned
// envelope around the job's full view at a state transition. Replay keeps the
// last record per job, so the journal is self-compacting in meaning even
// before the on-disk compaction rewrites it.
type journalLine struct {
	V   int     `json:"v"`
	Job JobView `json:"job"`
}

// journalVersion is the current journal line format.
const journalVersion = 1

// Journal is the append-only JSONL write-ahead log that makes jobs durable:
// every state transition (submitted, running, retry-queued, terminal) is
// appended and fsync'd before the transition takes effect, so a daemon
// killed at any instant can reconstruct every job — and its latest durable
// state — on restart. The file is a durable.Log: compacted on open (one
// record per job), torn tails dropped silently, interior corruption skipped
// with a warning, and a failed append rolled back so it never replays.
type Journal struct {
	mu      sync.Mutex
	log     *durable.Log
	path    string
	faults  *faults.Injector
	appends int64
	fails   int64
}

// OpenJournal replays the journal at path (if any), compacts it in place,
// and opens it for appending. It returns the recovered job views in
// first-submission order plus warnings for undecodable interior lines.
func OpenJournal(path string, inj *faults.Injector) (*Journal, []JobView, []error, error) {
	latest := make(map[string]int)
	var views []JobView
	log, warns, err := durable.OpenLog(path, decodeJournalLine, func(v JobView) error {
		if i, ok := latest[v.ID]; ok {
			views[i] = v
		} else {
			latest[v.ID] = len(views)
			views = append(views, v)
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("journal: %w", err)
	}
	// Compact: rewrite the surviving state, the latest view per job.
	if err := log.Rewrite(func(w io.Writer) error {
		for _, v := range views {
			raw, err := json.Marshal(journalLine{V: journalVersion, Job: v})
			if err == nil {
				_, err = w.Write(append(raw, '\n'))
			}
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, nil, nil, fmt.Errorf("journal: compact: %w", err)
	}
	return &Journal{log: log, path: path, faults: inj}, views, warns, nil
}

func decodeJournalLine(line []byte) (JobView, error) {
	var rec journalLine
	if err := json.Unmarshal(line, &rec); err != nil {
		return JobView{}, err
	}
	if rec.Job.ID == "" {
		return JobView{}, errors.New("record without job id")
	}
	return rec.Job, nil
}

// Append journals one job view: marshal, write, fsync. The transition is
// durable once Append returns nil; a failed append leaves nothing behind.
// Append is the JournalAppend/JournalSync fault point.
func (j *Journal) Append(v JobView) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.faults.Fire(faults.JournalAppend); err != nil {
		j.fails++
		return fmt.Errorf("journal: %w", err)
	}
	if j.log == nil {
		return fmt.Errorf("journal: closed")
	}
	raw, err := json.Marshal(journalLine{V: journalVersion, Job: v})
	if err == nil {
		err = j.log.Append(raw, func() error { return j.faults.Fire(faults.JournalSync) })
	}
	if err != nil {
		j.fails++
		return fmt.Errorf("journal: %w", err)
	}
	j.appends++
	return nil
}

// Close stops further appends. Safe on nil and double-close.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return nil
	}
	err := j.log.Close()
	j.log = nil
	return err
}

// Stats reports append/failure counters and the journal path for /metrics.
func (j *Journal) Stats() (path string, appends, fails int64) {
	if j == nil {
		return "", 0, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.path, j.appends, j.fails
}
