package kvstore

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
)

func testConfig(mode core.ForkMode) Config {
	return Config{
		ArenaBytes: 1 << 24, // 16 MiB
		TableCap:   1 << 12,
		Mode:       mode,
		Threshold:  0,
	}
}

func TestSetGet(t *testing.T) {
	k := kernel.New()
	s, err := New(k, testConfig(core.ForkOnDemand))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Set([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get([]byte("a"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestPopulate(t *testing.T) {
	k := kernel.New()
	s, err := New(k, testConfig(core.ForkClassic))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Populate(100, 64); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 100 {
		t.Errorf("Len = %d", s.Len())
	}
	v, ok, err := s.Get(Key(42))
	if err != nil || !ok || len(v) != 64 {
		t.Errorf("Get(key42) = %d bytes, %v, %v", len(v), ok, err)
	}
}

func TestSnapshotConsistency(t *testing.T) {
	// The snapshot must capture the state at fork time even while the
	// parent keeps mutating — the fundamental Redis property.
	k := kernel.New()
	s, err := New(k, testConfig(core.ForkOnDemand))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Populate(50, 16); err != nil {
		t.Fatal(err)
	}
	out := k.FS().Create("dump.rdb")
	if err := s.SnapshotNow(out); err != nil {
		t.Fatal(err)
	}
	// Mutate immediately after the fork returns; the child serializer
	// may still be running.
	for i := 0; i < 50; i++ {
		if _, err := s.Set(Key(i), bytes.Repeat([]byte{0xFF}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	s.WaitSnapshots()

	// The dump must contain only pre-mutation values (byte 0xFF absent).
	data := make([]byte, out.Size())
	if _, err := out.ReadAt(data, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty snapshot")
	}
	if bytes.Contains(data, bytes.Repeat([]byte{0xFF}, 16)) {
		t.Error("snapshot contains post-fork mutations")
	}
	if s.ForkTimes.N() != 1 || s.Snapshots() != 1 {
		t.Errorf("fork bookkeeping: n=%d snaps=%d", s.ForkTimes.N(), s.Snapshots())
	}
	if n := k.Allocator().Allocated(); n == 0 {
		t.Error("store arena unexpectedly freed")
	}
}

func TestThresholdTriggersSnapshot(t *testing.T) {
	// Both engines: the threshold forks a snapshot, and each fork is
	// timed.
	for _, mode := range []core.ForkMode{core.ForkClassic, core.ForkOnDemand} {
		k := kernel.New()
		cfg := testConfig(mode)
		cfg.Threshold = 10
		s, err := New(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snaps := 0
		for i := 0; i < 25; i++ {
			trig, err := s.Set(Key(i), []byte("v"))
			if err != nil {
				t.Fatal(err)
			}
			if trig {
				snaps++
			}
		}
		s.WaitSnapshots()
		if snaps != 2 || s.Snapshots() != 2 {
			t.Errorf("%v: snapshots = %d triggered, %d taken, want 2 (25 sets, threshold 10)", mode, snaps, s.Snapshots())
		}
		if n := s.ForkTimes.N(); n != 2 || s.ForkTimes.Mean() <= 0 {
			t.Errorf("%v: %d fork times, mean %f ms, want 2 timed forks", mode, n, s.ForkTimes.Mean())
		}
		s.Close()
	}
}
