package feedback

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"raqo/internal/applog/applogtest"
)

// TestJournalWriteFaults: a batch whose journal write fails is refused
// whole — no line of it in the file, nothing of it in the ring — and the
// acknowledged batches around it replay. When the cut-back fails too, the
// journal refuses every later batch until it is reopened, and the reopen
// keeps what was acknowledged.
func TestJournalWriteFaults(t *testing.T) {
	for _, c := range []struct {
		name   string
		faults applogtest.Faults
		sticky bool
	}{
		{"short write", applogtest.Faults{Write: true, Keep: 10}, false},
		{"write error", applogtest.Faults{Write: true}, false},
		{"short write, failing truncate", applogtest.Faults{Write: true, Keep: 10, Truncate: true}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fb.jsonl")
			fsys := &applogtest.FS{}
			j, err := openJournal(path, JournalConfig{}, fsys)
			if err != nil {
				t.Fatal(err)
			}
			st := NewStore(16, j)
			if err := st.AppendBatch([]Observation{obs(0), obs(1)}, nil); err != nil {
				t.Fatal(err)
			}
			acked := marshalLines(t, obs(0), obs(1))
			fsys.Set(c.faults)
			if err := st.AppendBatch([]Observation{obs(2), obs(3)}, nil); !errors.Is(err, applogtest.ErrInjected) {
				t.Fatalf("batch under the fault: %v", err)
			}
			fsys.Set(applogtest.Faults{})
			if st.Total() != 2 {
				t.Fatalf("the refused batch reached the ring: total %d", st.Total())
			}
			err = st.AppendBatch([]Observation{obs(4)}, nil)
			if c.sticky != (err != nil) {
				t.Fatalf("batch after the fault: %v (sticky %v)", err, c.sticky)
			}
			if err == nil {
				acked = append(acked, marshalLines(t, obs(4))...)
				if file, _ := os.ReadFile(path); !bytes.Equal(file, acked) {
					t.Fatalf("journal holds\n%s\nwant\n%s", file, acked)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if j, err = openJournal(path, JournalConfig{}, fsys); err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if err := j.AppendBatch([]Observation{obs(5)}, nil); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, marshalLines(t, obs(5))...)
			if file, _ := os.ReadFile(path); !bytes.Equal(file, acked) {
				t.Fatalf("after reopening the journal holds\n%s\nwant\n%s", file, acked)
			}
		})
	}
}

// TestJournalRotationRenameFault: a rotation whose rename fails refuses
// its batch, cuts back the lines it had written to the old file, and the
// journal goes on appending; the next rotation succeeds.
func TestJournalRotationRenameFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fb.jsonl")
	fsys := &applogtest.FS{}
	// Room for two lines: a batch's second line starts the rotation, and
	// its first line is the tail written to the old file.
	first := marshalLines(t, obs(0))
	j, err := openJournal(path, JournalConfig{MaxBytes: int64(len(marshalLines(t, obs(0), obs(1))))}, fsys)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.AppendBatch([]Observation{obs(0)}, nil); err != nil {
		t.Fatal(err)
	}
	fsys.Set(applogtest.Faults{Rename: true})
	if err := j.AppendBatch([]Observation{obs(1), obs(2)}, nil); !errors.Is(err, applogtest.ErrInjected) {
		t.Fatalf("batch across a failing rotation: %v", err)
	}
	if file, _ := os.ReadFile(path); !bytes.Equal(file, first) {
		t.Fatalf("after the refused rotation the journal holds\n%s\nwant\n%s", file, first)
	}
	fsys.Set(applogtest.Faults{})
	if err := j.AppendBatch([]Observation{obs(3), obs(4)}, nil); err != nil {
		t.Fatal(err)
	}
	if rotated, _ := os.ReadFile(path + ".1"); !bytes.Equal(rotated, marshalLines(t, obs(0), obs(3))) {
		t.Fatalf("rotated file holds\n%s", rotated)
	}
	if active, _ := os.ReadFile(path); !bytes.Equal(active, marshalLines(t, obs(4))) {
		t.Fatalf("active file holds\n%s", active)
	}
}
