package aggview_test

import (
	"context"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"aggview"
)

// Legacy data directories. testdata/legacy holds directories written by the
// engine while it still had CREATE INDEX:
//
//   - create-index-log: a log of CREATE TABLE, INSERT, CREATE INDEX and a
//     later INSERT, with no checkpoint;
//   - create-index-checkpoint: a checkpoint taken after a CREATE INDEX;
//   - index-free: a checkpoint plus a log tail that never created an index,
//     with the StateFingerprint that engine printed for it beside it in
//     index-free.fingerprint.
//
// A directory that used CREATE INDEX is refused as corrupt, by name, and
// left byte for byte as it was; one that never did opens to the same state.

// readTree returns every file under dir, keyed by its path relative to dir.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		out[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// copyLegacy copies a committed fixture directory into a fresh temporary
// directory, so opening it can never touch the committed files, and returns
// the copy's path and the original contents.
func copyLegacy(t *testing.T, name string) (string, map[string][]byte) {
	t.Helper()
	files := readTree(t, filepath.Join("testdata", "legacy", name))
	if len(files) == 0 {
		t.Fatalf("fixture %s is empty", name)
	}
	dir := t.TempDir()
	for rel, b := range files {
		if err := os.WriteFile(filepath.Join(dir, rel), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, files
}

func TestRecoveryLegacyCreateIndexRefused(t *testing.T) {
	for _, tc := range []struct{ fixture, names string }{
		{"create-index-log", "create-index"},
		{"create-index-checkpoint", "index section"},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			dir, before := copyLegacy(t, tc.fixture)
			eng, err := aggview.OpenDurable(aggview.Config{PoolPages: 16, DataDir: dir})
			if err == nil {
				eng.Close()
				t.Fatal("OpenDurable accepted a directory that used CREATE INDEX")
			}
			if !errors.Is(err, aggview.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			if !strings.Contains(err.Error(), tc.names) || !strings.Contains(err.Error(), "CREATE INDEX was removed") {
				t.Fatalf("err = %v, want it to name %q and say CREATE INDEX was removed", err, tc.names)
			}
			if after := readTree(t, dir); !maps.EqualFunc(before, after, func(a, b []byte) bool { return string(a) == string(b) }) {
				t.Fatalf("the refused open changed the directory: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

func TestRecoveryLegacyIndexFree(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "legacy", "index-free.fingerprint"))
	if err != nil {
		t.Fatal(err)
	}
	dir, _ := copyLegacy(t, "index-free")
	const q = `select e.dno, d.dname, sum(e.sal), count(*) from emp e, dept d where e.dno = d.dno group by e.dno, d.dname order by 1`
	// The answer the engine that wrote the directory gave for q.
	answer := [][]any{
		{int64(1), "eng", 2100.0, int64(2)},
		{int64(2), "sales", 1850.0, int64(2)},
		{int64(3), "ops", 2000.0, int64(2)},
	}
	for round := 0; round < 2; round++ {
		eng, err := aggview.OpenDurable(aggview.Config{PoolPages: 16, DataDir: dir})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := eng.StateFingerprint(); got != strings.TrimSpace(string(want)) {
			t.Fatalf("round %d: fingerprint %s, want %s", round, got, want)
		}
		res, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Rows, answer) {
			t.Fatalf("round %d: answer %v, want %v", round, res.Rows, answer)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
