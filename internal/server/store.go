package server

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"arcc/internal/exhibit"
	"arcc/internal/faultfs"
	"arcc/internal/mc"
)

// The durable store's on-disk layout under Options.StateDir:
//
//	journal.jsonl           append-only job journal, one JSON record per
//	                        line, fsync'd per append; replayed on startup
//	results/<key>.json      content-addressed encoded reports
//	                        (exhibit.EncodeReport), written atomically
//	checkpoints/<id>.json   a running job's engine checkpoints, keyed by
//	                        engine-job sequence index, written atomically
//
// Every mutation goes through a faultfs.FS, so tests inject write/sync/
// rename failures and torn appends deterministically.
const (
	journalName    = "journal.jsonl"
	resultsDir     = "results"
	checkpointsDir = "checkpoints"
)

// journalRecord is one line of the job journal. A job contributes a
// "submit" record when accepted and exactly one terminal record ("done",
// "failed", "canceled") when it ends — except when the process dies or a
// shutdown interrupts it, which is precisely how replay tells interrupted
// jobs (re-enqueue from their latest checkpoint) from finished ones. Time
// is when the job was created (submit) or finished (terminal); a terminal
// record also carries Started, which records written before it was added
// lack, and a job that never started has none.
type journalRecord struct {
	Op       string            `json:"op"`
	ID       string            `json:"id"`
	Key      string            `json:"key,omitempty"`
	Name     string            `json:"name,omitempty"`
	Format   string            `json:"format,omitempty"`
	Exhibit  string            `json:"exhibit,omitempty"`
	Scenario *exhibit.Scenario `json:"scenario,omitempty"`
	Seed     int64             `json:"seed,omitempty"`
	Trials   int               `json:"trials,omitempty"`
	Parallel int               `json:"parallel,omitempty"`
	Quick    bool              `json:"quick,omitempty"`
	Cached   bool              `json:"cached,omitempty"`
	Error    string            `json:"error,omitempty"`
	Time     string            `json:"time,omitempty"`
	Started  string            `json:"started,omitempty"`
}

// The journal operations.
const (
	opSubmit   = "submit"
	opDone     = "done"
	opFailed   = "failed"
	opCanceled = "canceled"
)

// store persists jobs, results, and checkpoints under one directory.
// Append and rewrite are serialized by mu; the result and checkpoint
// files are written atomically (tmp + rename) so readers never observe a
// partial file — only the journal needs torn-tail tolerance.
type store struct {
	fs   faultfs.FS
	dir  string
	logf func(format string, args ...any)

	mu      sync.Mutex
	journal faultfs.File
}

func newStore(fs faultfs.FS, dir string, logf func(string, ...any)) (*store, error) {
	for _, d := range []string{dir, filepath.Join(dir, resultsDir), filepath.Join(dir, checkpointsDir)} {
		if err := fs.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("server: state dir: %w", err)
		}
	}
	journal, err := fs.OpenAppend(filepath.Join(dir, journalName))
	if err != nil {
		return nil, fmt.Errorf("server: open journal: %w", err)
	}
	return &store{fs: fs, dir: dir, logf: logf, journal: journal}, nil
}

func (st *store) close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.journal != nil {
		st.journal.Close()
		st.journal = nil
	}
}

// append journals records: one line each, written in one call and
// fsync'd once, so a crash can tear at most the final record — which
// replay tolerates. A record whose Time is unset is stamped with the
// append time; a set one is kept.
func (st *store) append(recs ...journalRecord) error {
	now := time.Now().UTC().Format(time.RFC3339Nano)
	var line []byte
	for _, rec := range recs {
		if rec.Time == "" {
			rec.Time = now
		}
		b, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("server: journal marshal: %w", err)
		}
		line = append(append(line, b...), '\n')
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.journal == nil {
		return fmt.Errorf("server: journal closed")
	}
	if _, err := st.journal.Write(line); err != nil {
		return fmt.Errorf("server: journal append: %w", err)
	}
	if err := st.journal.Sync(); err != nil {
		return fmt.Errorf("server: journal sync: %w", err)
	}
	return nil
}

// replay reads the journal back. A torn final line — the signature of a
// crash mid-append — is dropped; every record before it is recovered. A
// malformed line elsewhere ends the replay at that point too, surrendering
// the tail rather than failing startup.
func (st *store) replay() []journalRecord {
	data, err := st.fs.ReadFile(filepath.Join(st.dir, journalName))
	if err != nil {
		return nil // first boot: no journal yet
	}
	var recs []journalRecord
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		if line == "" {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			dropped := len(lines) - i
			st.logf("server: journal: dropping %d unparsable trailing record(s) (torn write?): %v", dropped, err)
			break
		}
		recs = append(recs, rec)
	}
	return recs
}

// rewrite replaces the journal with just recs (atomic tmp + rename) and
// reopens the append handle — startup compaction after replay.
func (st *store) rewrite(recs []journalRecord) error {
	var buf []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("server: journal marshal: %w", err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	path := filepath.Join(st.dir, journalName)
	if err := st.writeFileAtomic(path, buf); err != nil {
		return err
	}
	if st.journal != nil {
		st.journal.Close()
	}
	journal, err := st.fs.OpenAppend(path)
	if err != nil {
		st.journal = nil
		return fmt.Errorf("server: reopen journal: %w", err)
	}
	st.journal = journal
	return nil
}

// writeFileAtomic lands blob at path via tmp + fsync + rename, so a crash
// leaves either the old file or the new one, never a mix.
func (st *store) writeFileAtomic(path string, blob []byte) error {
	tmp := path + ".tmp"
	f, err := st.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("server: create %s: %w", tmp, err)
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		st.fs.Remove(tmp)
		return fmt.Errorf("server: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		st.fs.Remove(tmp)
		return fmt.Errorf("server: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		st.fs.Remove(tmp)
		return fmt.Errorf("server: close %s: %w", tmp, err)
	}
	if err := st.fs.Rename(tmp, path); err != nil {
		st.fs.Remove(tmp)
		return fmt.Errorf("server: rename %s: %w", path, err)
	}
	return nil
}

// saveResult persists an encoded report under its content-addressed key.
func (st *store) saveResult(key string, blob []byte) error {
	return st.writeFileAtomic(filepath.Join(st.dir, resultsDir, key+".json"), blob)
}

func (st *store) removeResult(key string) {
	st.fs.Remove(filepath.Join(st.dir, resultsDir, key+".json"))
}

// loadResults decodes every persisted report, keyed by cache key. A file
// that fails to decode is skipped (and logged): losing one cached result
// costs a re-run, not a failed startup.
func (st *store) loadResults() map[string]*exhibit.Report {
	entries, err := st.fs.ReadDir(filepath.Join(st.dir, resultsDir))
	if err != nil {
		return nil
	}
	out := map[string]*exhibit.Report{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".tmp") {
			continue
		}
		blob, err := st.fs.ReadFile(filepath.Join(st.dir, resultsDir, name))
		if err != nil {
			continue
		}
		report, err := exhibit.DecodeReport(blob)
		if err != nil {
			st.logf("server: skipping undecodable result %s: %v", name, err)
			continue
		}
		out[strings.TrimSuffix(name, ".json")] = report
	}
	return out
}

// saveCheckpoints persists a job's engine checkpoints (all engine jobs
// the exhibit has run so far, keyed by sequence index) in one atomic
// write, so replay sees a consistent set.
func (st *store) saveCheckpoints(id string, cps map[int]*mc.Checkpoint) error {
	blob, err := json.Marshal(cps)
	if err != nil {
		return fmt.Errorf("server: checkpoint marshal: %w", err)
	}
	return st.writeFileAtomic(filepath.Join(st.dir, checkpointsDir, id+".json"), blob)
}

func (st *store) removeCheckpoints(id string) {
	st.fs.Remove(filepath.Join(st.dir, checkpointsDir, id+".json"))
}

// loadCheckpoints reads every job's persisted checkpoints, keyed by job
// id. An unreadable or undecodable file maps its id to nil — the job
// re-runs from scratch, and its file is removed when the job ends. A
// temporary file is what a crash mid-write left; it is removed.
func (st *store) loadCheckpoints() map[string]map[int]*mc.Checkpoint {
	entries, err := st.fs.ReadDir(filepath.Join(st.dir, checkpointsDir))
	if err != nil {
		return nil
	}
	out := map[string]map[int]*mc.Checkpoint{}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".tmp") {
			st.fs.Remove(filepath.Join(st.dir, checkpointsDir, name))
		}
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		out[id] = nil
		blob, err := st.fs.ReadFile(filepath.Join(st.dir, checkpointsDir, name))
		if err != nil {
			continue
		}
		var cps map[int]*mc.Checkpoint
		if err := json.Unmarshal(blob, &cps); err != nil {
			st.logf("server: skipping undecodable checkpoints %s: %v", name, err)
			continue
		}
		out[id] = cps
	}
	return out
}
