package wal

import (
	"bytes"
	"testing"
)

// TestAppendAllocs gates the ingest-durability budget: once the frame
// buffer has grown to the record size, Append must not allocate — the WAL
// sits on the per-document commit path, which is otherwise allocation-free
// (DESIGN.md §9).
func TestAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	l, err := Open(t.TempDir(), Options{Sync: SyncOff, SegmentSize: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("x"), 256)
	if err := l.Append(payload); err != nil { // warm: grows buf, opens segment
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Append allocates %.1f objects per record, want 0", allocs)
	}
}

// TestEncodeFrameAllocs checks the shared frame codec reuses its
// destination buffer.
func TestEncodeFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	payload := bytes.Repeat([]byte("y"), 128)
	buf := make([]byte, 0, FrameHeaderSize+len(payload))
	allocs := testing.AllocsPerRun(100, func() {
		buf = EncodeFrame(buf[:0], payload)
	})
	if allocs != 0 {
		t.Errorf("EncodeFrame allocates %.1f objects, want 0", allocs)
	}
}

// TestAppendBatchAllocs extends the budget to group commit: journaling a
// whole group must stay allocation-free once the frame buffer has grown,
// or batching would trade fsyncs for GC pressure.
func TestAppendBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	l, err := Open(t.TempDir(), Options{Sync: SyncOff, SegmentSize: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	batch := make([][]byte, 16)
	for i := range batch {
		batch[i] = bytes.Repeat([]byte("x"), 256)
	}
	if err := l.AppendBatchNoSync(batch); err != nil { // warm: grows buf, opens segment
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := l.AppendBatchNoSync(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendBatchNoSync allocates %.1f objects per batch, want 0", allocs)
	}
}
