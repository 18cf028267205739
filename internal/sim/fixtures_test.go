package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"wormnet/internal/baseline"
)

// The frame internal/checkpoint writes around a snapshot's gob payload: magic,
// format version, length and CRC, 20 bytes, and the one version it decodes.
const (
	frameHeader  = 20
	frameVersion = 3
)

// decodeFixture gob-decodes a committed snapshot payload, which must be the
// encoding of today's Snapshot: encoded again, it is the same bytes.
func decodeFixture(t *testing.T, name string, payload []byte) *Snapshot {
	t.Helper()
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if wire, _ := snapBytes(t, &s); !bytes.Equal(wire, payload) {
		t.Fatalf("%s: not the encoding of today's Snapshot: it decodes and encodes to other bytes", name)
	}
	return &s
}

// TestCommittedFixturesCurrent requires every committed snapshot to be of the
// one layout the engine reads: each internal/checkpoint fixture a frame of the
// one version its decoder accepts, and the PR 14 queue fixture a gob of
// today's Snapshot that restores.
func TestCommittedFixturesCurrent(t *testing.T) {
	files, err := filepath.Glob("../checkpoint/testdata/*.wncp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint fixtures: %v", err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) < frameHeader || string(raw[:4]) != "WNCP" {
			t.Fatalf("%s: not a checkpoint frame", file)
		}
		if v := binary.LittleEndian.Uint32(raw[4:8]); v != frameVersion {
			t.Errorf("%s: a version-%d frame, want %d", file, v, frameVersion)
			continue
		}
		decodeFixture(t, file, raw[frameHeader:])
	}

	const queues = "testdata/queues_written_by_pr14.gob"
	raw, err := os.ReadFile(queues)
	if err != nil {
		t.Fatal(err)
	}
	e, err := RestoreEngine(saturatedQueuesConfig(), decodeFixture(t, queues, raw))
	if err != nil {
		t.Fatalf("%s: %v", queues, err)
	}
	e.Close()
}

// parentCheckpoints are the checkpoint files an older layout wrote and its
// converter re-encoded (internal/checkpoint's parentWritten): the run each was
// taken from, at cycle 700.
var parentCheckpoints = []struct {
	file string
	cfg  func() Config
}{
	{"../checkpoint/testdata/written_by_pr13.wncp", fixtureShortConfig},
	{"../checkpoint/testdata/dril_bursty.wncp", fixtureDrilBurstyConfig},
}

func fixtureShortConfig() Config {
	cfg := QuickConfig()
	cfg.Rate = 1.5
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 300, 1200, 500
	return cfg
}

func fixtureDrilBurstyConfig() Config {
	cfg := fixtureShortConfig()
	cfg.Rate = 1.2
	cfg.Burst.OnMean, cfg.Burst.OffMean = 150, 300
	cfg.Limiter, cfg.LimiterName = baseline.NewDRIL(), "dril"
	return cfg
}

// TestParentCheckpointsRelabeled holds today's engine to the checkpoint files
// earlier layouts wrote: run to the file's cycle, an engine that queues every
// waiting message as a record — as those layouts did — snapshots to the file,
// once both have their ids relabeled (relabeled), the nodes numbering their
// own messages now.
func TestParentCheckpointsRelabeled(t *testing.T) {
	for _, fx := range parentCheckpoints {
		raw, err := os.ReadFile(fx.file)
		if err != nil {
			t.Fatal(err)
		}
		then := decodeFixture(t, fx.file, raw[frameHeader:])
		e, err := New(fx.cfg())
		if err != nil {
			t.Fatal(err)
		}
		e.replay = false
		for e.Now() < 700 {
			e.Step()
		}
		now, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		got, _ := snapBytes(t, relabeled(t, now))
		if want, _ := snapBytes(t, relabeled(t, then)); !bytes.Equal(got, want) {
			t.Errorf("%s: the same run at the same cycle no longer encodes to the file's bytes, ids relabeled", fx.file)
		}
	}
}
