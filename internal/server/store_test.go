package server

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"arcc/internal/faultfs"
)

func testStore(t *testing.T, fs faultfs.FS) *store {
	t.Helper()
	st, err := newStore(fs, t.TempDir(), t.Logf)
	if err != nil {
		t.Fatalf("newStore: %v", err)
	}
	t.Cleanup(st.close)
	return st
}

func TestJournalAppendReplayRoundTrip(t *testing.T) {
	st := testStore(t, faultfs.OS())
	want := []journalRecord{
		{Op: opSubmit, ID: "job-1", Key: "k1", Exhibit: "f3.1", Seed: 7, Trials: 100},
		{Op: opDone, ID: "job-1", Key: "k1"},
		{Op: opSubmit, ID: "job-2", Key: "k2", Exhibit: "t7.1"},
		{Op: opFailed, ID: "job-2", Key: "k2", Error: "boom"},
	}
	for _, rec := range want {
		if err := st.append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	got := st.replay()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Op != want[i].Op || got[i].ID != want[i].ID ||
			got[i].Key != want[i].Key || got[i].Error != want[i].Error {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
		if got[i].Time == "" {
			t.Errorf("record %d: append did not stamp a time", i)
		}
	}
}

func TestReplayToleratesTornFinalRecord(t *testing.T) {
	st := testStore(t, faultfs.OS())
	for _, rec := range []journalRecord{
		{Op: opSubmit, ID: "job-1"},
		{Op: opDone, ID: "job-1"},
	} {
		if err := st.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// A crash mid-append leaves a half-written final line with no newline.
	f, err := os.OpenFile(filepath.Join(st.dir, journalName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"submit","id":"job-2","ke`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got := st.replay()
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want the 2 intact ones", len(got))
	}
	if got[0].ID != "job-1" || got[1].Op != opDone {
		t.Fatalf("replayed %+v", got)
	}
}

func TestReplayTornMiddleSurrendersTail(t *testing.T) {
	st := testStore(t, faultfs.OS())
	if err := st.append(journalRecord{Op: opSubmit, ID: "job-1"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(st.dir, journalName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("garbage line\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// A record after the corruption is surrendered rather than trusted:
	// the journal's integrity is prefix-only.
	if err := st.append(journalRecord{Op: opSubmit, ID: "job-3"}); err != nil {
		t.Fatal(err)
	}

	got := st.replay()
	if len(got) != 1 || got[0].ID != "job-1" {
		t.Fatalf("replayed %+v, want just the intact prefix", got)
	}
}

func TestRewriteCompactsAndReopens(t *testing.T) {
	st := testStore(t, faultfs.OS())
	for i := 0; i < 10; i++ {
		if err := st.append(journalRecord{Op: opSubmit, ID: "job-1"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.rewrite([]journalRecord{{Op: opSubmit, ID: "job-1", Time: "t"}}); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	// The append handle must still work after the rewrite swapped the file.
	if err := st.append(journalRecord{Op: opDone, ID: "job-1"}); err != nil {
		t.Fatalf("append after rewrite: %v", err)
	}
	got := st.replay()
	if len(got) != 2 || got[0].Op != opSubmit || got[1].Op != opDone {
		t.Fatalf("replayed %+v, want the compacted record plus one append", got)
	}
}

func TestWriteFileAtomicSurvivesRenameFault(t *testing.T) {
	fs := faultfs.Wrap(faultfs.OS())
	st := testStore(t, fs)
	path := filepath.Join(st.dir, resultsDir, "k.json")
	if err := st.writeFileAtomic(path, []byte("old")); err != nil {
		t.Fatal(err)
	}

	fs.AddRule(faultfs.Rule{Op: faultfs.OpRename, PathContains: "k.json", Times: 1})
	err := st.writeFileAtomic(path, []byte("new"))
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("rename fault surfaced as %v", err)
	}
	// The old content survives untouched and the tmp file is cleaned up.
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "old" {
		t.Fatalf("after failed atomic write: %q, %v; want the old content", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind: %v", err)
	}
}

func TestAppendSurfacesSyncFault(t *testing.T) {
	fs := faultfs.Wrap(faultfs.OS())
	st := testStore(t, fs)
	fs.AddRule(faultfs.Rule{Op: faultfs.OpSync, PathContains: journalName, Times: 1})
	if err := st.append(journalRecord{Op: opSubmit, ID: "job-1"}); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append with sync fault returned %v, want ErrInjected", err)
	}
	if err := st.append(journalRecord{Op: opSubmit, ID: "job-2"}); err != nil {
		t.Fatalf("append after the fault cleared: %v", err)
	}
}
