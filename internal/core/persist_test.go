package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"artmem/internal/rl"
)

func TestQTableSnapshotRoundTrip(t *testing.T) {
	a := New(Config{})
	a.Attach(testMachine(16))
	mig, thr := a.QTables()
	mig.SetQ(2, 3, 1.25)
	thr.SetQ(7, 1, -0.5)

	var buf bytes.Buffer
	if err := a.SaveQTables(&buf); err != nil {
		t.Fatal(err)
	}
	b := New(Config{})
	b.Attach(testMachine(16))
	if err := b.RestoreQTables(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	bm, bt := b.QTables()
	if bm.Q(2, 3) != 1.25 || bt.Q(7, 1) != -0.5 {
		t.Errorf("restored Q = %g/%g", bm.Q(2, 3), bt.Q(7, 1))
	}
	// The optimistic init survives too (it was saved).
	if bm.Q(10, 0) != 1 {
		t.Errorf("Q(k,0) = %g after restore", bm.Q(10, 0))
	}
}

func TestQTableSnapshotErrors(t *testing.T) {
	unattached := New(Config{})
	var buf bytes.Buffer
	if err := unattached.SaveQTables(&buf); err == nil {
		t.Error("save before attach accepted")
	}
	if err := unattached.RestoreQTables(bytes.NewReader(nil)); err == nil {
		t.Error("restore before attach accepted")
	}

	a := New(Config{})
	a.Attach(testMachine(16))
	if err := a.RestoreQTables(bytes.NewReader([]byte("garbage!"))); err == nil {
		t.Error("garbage snapshot accepted")
	}
	// Dimension mismatch: snapshot from a K=4 agent into a K=10 agent.
	small := New(Config{K: 4})
	small.Attach(testMachine(16))
	var sbuf bytes.Buffer
	if err := small.SaveQTables(&sbuf); err != nil {
		t.Fatal(err)
	}
	if err := a.RestoreQTables(bytes.NewReader(sbuf.Bytes())); err == nil {
		t.Error("dimension mismatch accepted")
	}
	// Truncation.
	if err := a.RestoreQTables(bytes.NewReader(sbuf.Bytes()[:10])); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

func TestQTableSnapshotFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "qtables.bin")
	a := New(Config{})
	a.Attach(testMachine(16))
	mig, _ := a.QTables()
	mig.SetQ(1, 1, 9)
	if err := a.SaveQTablesFile(path); err != nil {
		t.Fatal(err)
	}
	b := New(Config{})
	b.Attach(testMachine(16))
	if err := b.RestoreQTablesFile(path); err != nil {
		t.Fatal(err)
	}
	bm, _ := b.QTables()
	if bm.Q(1, 1) != 9 {
		t.Errorf("file round trip lost Q values")
	}
	if err := b.RestoreQTablesFile(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRestoreLeavesLiveTablesUntouchedOnCorruption(t *testing.T) {
	// Build a valid snapshot, then corrupt pieces of it and verify every
	// failed restore leaves the live tables exactly as they were.
	src := New(Config{})
	src.Attach(testMachine(16))
	sm, st := src.QTables()
	sm.SetQ(2, 3, 1.25)
	st.SetQ(7, 1, -0.5)
	var buf bytes.Buffer
	if err := src.SaveQTables(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	newAgent := func() *ArtMem {
		a := New(Config{})
		a.Attach(testMachine(16))
		am, at := a.QTables()
		am.SetQ(5, 5, 42)
		at.SetQ(3, 2, -7)
		return a
	}
	checkUntouched := func(t *testing.T, a *ArtMem) {
		t.Helper()
		am, at := a.QTables()
		if am.Q(5, 5) != 42 || at.Q(3, 2) != -7 {
			t.Errorf("live tables modified by failed restore: %g/%g",
				am.Q(5, 5), at.Q(3, 2))
		}
		if am.Q(2, 3) == 1.25 {
			t.Error("snapshot values leaked into live tables")
		}
	}

	t.Run("truncated-mid-second-table", func(t *testing.T) {
		a := newAgent()
		err := a.RestoreQTables(bytes.NewReader(good[:len(good)-4]))
		if err == nil {
			t.Fatal("truncated snapshot accepted")
		}
		if !strings.Contains(err.Error(), "table 1") {
			t.Errorf("error not descriptive: %v", err)
		}
		checkUntouched(t, a)
	})

	t.Run("corrupt-second-table-magic", func(t *testing.T) {
		a := newAgent()
		// Layout: 4B snapshot magic, then per table: 4B length + body.
		firstLen := binary.LittleEndian.Uint32(good[4:8])
		secondBody := 8 + int(firstLen) + 4 // first byte of table 2's body
		bad := append([]byte(nil), good...)
		bad[secondBody] ^= 0xff
		err := a.RestoreQTables(bytes.NewReader(bad))
		if err == nil {
			t.Fatal("corrupt second table accepted")
		}
		checkUntouched(t, a)
	})

	t.Run("corrupt-first-table-magic", func(t *testing.T) {
		a := newAgent()
		bad := append([]byte(nil), good...)
		bad[8] ^= 0xff
		err := a.RestoreQTables(bytes.NewReader(bad))
		if err == nil {
			t.Fatal("corrupt first table accepted")
		}
		if !strings.Contains(err.Error(), "table 0") {
			t.Errorf("error not descriptive: %v", err)
		}
		checkUntouched(t, a)
	})

	t.Run("implausible-length", func(t *testing.T) {
		a := newAgent()
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(bad[4:8], 1<<24)
		err := a.RestoreQTables(bytes.NewReader(bad))
		if err == nil {
			t.Fatal("implausible length accepted")
		}
		checkUntouched(t, a)
	})

	t.Run("good-snapshot-still-restores", func(t *testing.T) {
		a := newAgent()
		if err := a.RestoreQTables(bytes.NewReader(good)); err != nil {
			t.Fatal(err)
		}
		am, at := a.QTables()
		if am.Q(2, 3) != 1.25 || at.Q(7, 1) != -0.5 {
			t.Error("valid restore did not apply")
		}
	})
}

// TestRestoreRejectsNonFiniteQ pins the finiteness check: a snapshot
// carrying a NaN or ±Inf Q value in either table is refused, and the
// live tables stay exactly as they were.
func TestRestoreRejectsNonFiniteQ(t *testing.T) {
	for _, c := range []struct {
		name  string
		table int
		v     float64
	}{
		{"nan-migration-table", 0, math.NaN()},
		{"inf-threshold-table", 1, math.Inf(1)},
		{"neg-inf-migration-table", 0, math.Inf(-1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := New(Config{})
			src.Attach(testMachine(16))
			sm, st := src.QTables()
			[]*rl.Table{sm, st}[c.table].SetQ(3, 1, c.v)
			var buf bytes.Buffer
			if err := src.SaveQTables(&buf); err != nil {
				t.Fatal(err)
			}

			a := New(Config{})
			a.Attach(testMachine(16))
			am, at := a.QTables()
			am.SetQ(5, 5, 42)
			at.SetQ(3, 2, -7)
			before := [][]byte{mustMarshal(t, am), mustMarshal(t, at)}
			err := a.RestoreQTables(bytes.NewReader(buf.Bytes()))
			if err == nil || !strings.Contains(err.Error(), "non-finite") {
				t.Fatalf("poisoned snapshot: err = %v, want a non-finite refusal", err)
			}
			for i, tb := range []*rl.Table{am, at} {
				if !bytes.Equal(mustMarshal(t, tb), before[i]) {
					t.Errorf("table %d changed by a refused restore", i)
				}
			}
		})
	}
}

func mustMarshal(t *testing.T, tb *rl.Table) []byte {
	t.Helper()
	b, err := tb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSaveFailureKeepsCheckpoint pins the atomic save: when a save
// fails after its temporary file was written, the existing checkpoint
// stays byte-identical and no temporary file is left behind.
func TestSaveFailureKeepsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "qtables.bin")
	a := New(Config{})
	a.Attach(testMachine(16))
	if err := a.SaveQTablesFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	mig, _ := a.QTables()
	mig.SetQ(1, 1, 9) // the next snapshot differs from the saved one
	injected := errors.New("injected sync failure")
	syncFile = func(*os.File) error { return injected }
	defer func() { syncFile = (*os.File).Sync }()
	if err := a.SaveQTablesFile(path); !errors.Is(err, injected) {
		t.Fatalf("save with a failing sync: err = %v, want the injected failure", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, good) {
		t.Error("failed save modified the existing checkpoint")
	}
	// An unattached agent fails before touching the disk at all.
	if err := New(Config{}).SaveQTablesFile(path); err == nil {
		t.Error("unattached agent saved a checkpoint")
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, good) {
		t.Error("failed unattached save modified the existing checkpoint")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v after failed saves, want only the checkpoint", names)
	}
}

// FuzzRestoreQTables pins the checkpoint restore as all-or-nothing on
// arbitrary bytes: either RestoreQTables fails and the live tables
// re-save byte-identical to before, or it succeeds and the re-save
// reproduces the input exactly — so nothing a snapshot carries is
// silently ignored.
func FuzzRestoreQTables(f *testing.F) {
	src := New(Config{})
	src.Attach(testMachine(16))
	sm, st := src.QTables()
	sm.SetQ(2, 3, 1.25)
	st.SetQ(7, 1, -0.5)
	var buf bytes.Buffer
	if err := src.SaveQTables(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	firstLen := binary.LittleEndian.Uint32(good[4:8])
	oversized := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(oversized[4:8], 1<<24)
	longer := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(longer[4:8], firstLen+8)
	nan := append([]byte(nil), good...)
	// The first Q value of table 0 follows the snapshot magic, the
	// table length and the table's magic/states/actions header.
	binary.LittleEndian.PutUint64(nan[8+12:], math.Float64bits(math.NaN()))
	for _, seed := range [][]byte{
		good,
		good[:len(good)-4],
		good[:10],
		good[:3],
		oversized,
		longer,
		nan,
		append(append([]byte(nil), good...), 0xff),
		nil,
	} {
		f.Add(seed)
	}

	a := New(Config{})
	a.Attach(testMachine(16))
	save := func(t *testing.T) []byte {
		var b bytes.Buffer
		if err := a.SaveQTables(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		before := save(t)
		err := a.RestoreQTables(bytes.NewReader(data))
		after := save(t)
		if err != nil {
			if !bytes.Equal(after, before) {
				t.Fatalf("failed restore (%v) modified the live tables", err)
			}
			return
		}
		if !bytes.Equal(after, data) {
			t.Fatalf("restore accepted %d bytes but re-saves %d different bytes", len(data), len(after))
		}
	})
}
