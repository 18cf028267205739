package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wormnet/internal/baseline"
	"wormnet/internal/sim"
)

// shortConfig is a fast scenario with deadlock recoveries active, so the
// snapshot carries non-trivial state (in-flight wormholes, recovery queues).
func shortConfig() sim.Config {
	cfg := sim.QuickConfig()
	cfg.Rate = 1.5
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 300, 1200, 500
	return cfg
}

// midRunSnapshot runs shortConfig to cycle 700 and snapshots it.
func midRunSnapshot(t *testing.T) *sim.Snapshot {
	t.Helper()
	return snapshotAt(t, shortConfig(), 700)
}

// encodeBytes encodes snap into a fresh buffer.
func encodeBytes(t *testing.T, snap *sim.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncodeDecodeRoundTrip pins that Decode inverts Encode. The snapshot
// type has no maps, so its gob encoding is deterministic: re-encoding the
// decoded snapshot must reproduce the original bytes exactly, which checks
// every field without enumerating them.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap := midRunSnapshot(t)
	raw := encodeBytes(t, snap)
	if len(raw) <= headerSize {
		t.Fatalf("suspiciously small checkpoint: %d bytes", len(raw))
	}
	got, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(t, got), raw) {
		t.Error("decoded snapshot re-encodes differently: some field did not survive the round trip")
	}
}

// counters collects an engine's all-time totals.
func counters(e *sim.Engine) [6]int64 {
	return [6]int64{e.Generated(), e.Delivered(), e.Recovered(), e.Aborted(), e.Retried(), e.Dropped()}
}

// TestRestoreThroughFile is the full cold-restart path: snapshot → file →
// fresh process image → resumed run, compared against the uninterrupted run
// at worker counts 1, 2 and 4 on both sides of the restart: the same result
// and all-time counters, and an engine whose invariants hold at the end.
func TestRestoreThroughFile(t *testing.T) {
	cfg := shortConfig()
	golden, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer golden.Close()
	wantRes := golden.Run()
	wantCounters := counters(golden)

	path := filepath.Join(t.TempDir(), "run.wncp")
	if err := WriteFile(path, midRunSnapshot(t)); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4} {
		snap, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.Workers = workers
		e, err := sim.RestoreEngine(rcfg, snap)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		res := e.Run()
		if res != wantRes {
			t.Errorf("workers=%d: resumed result diverged:\n got  %+v\n want %+v", workers, res, wantRes)
		}
		if c := counters(e); c != wantCounters {
			t.Errorf("workers=%d: resumed counters %v, want %v", workers, c, wantCounters)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Errorf("workers=%d: invariants after resume: %v", workers, err)
		}
		e.Close()
	}
}

// parentWritten lists the checkpoints earlier commits wrote, each the run it
// was taken from and the cycle it was taken at. alo-uniform is from the last
// commit whose engine kept every buffered flit as a record (the run
// midRunSnapshot repeats). dril-bursty is from the last commit whose snapshots
// saved generator and limiter state into fresh storage: DRIL with most nodes
// triggered and on/off sources mid-burst, so both PCG streams of every
// BurstySource and every limiter word are in the file. Both are version-1
// frames, which Decode converts. alo-uniform-v2 is alo-uniform again, written
// by the first commit whose snapshots store only what the engine cannot
// derive: the version-2 frame the first file converts to.
var parentWritten = []struct {
	name, file string
	cfg        func() sim.Config
	cycle      int64
}{
	{"alo-uniform", "testdata/written_by_pr13.wncp", shortConfig, 700},
	{"dril-bursty", "testdata/dril_bursty.wncp", drilBurstyConfig, 700},
	{"alo-uniform-v2", "testdata/alo_uniform_v2.wncp", shortConfig, 700},
}

// drilBurstyConfig is shortConfig's schedule at a saturating bursty load
// under DRIL.
func drilBurstyConfig() sim.Config {
	cfg := sim.QuickConfig()
	cfg.Rate = 1.2
	cfg.Burst.OnMean, cfg.Burst.OffMean = 150, 300
	cfg.Limiter, cfg.LimiterName = baseline.NewDRIL(), "dril"
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 300, 1200, 500
	return cfg
}

// snapshotAt runs cfg to cycle and snapshots it.
func snapshotAt(t *testing.T, cfg sim.Config, cycle int64) *sim.Snapshot {
	t.Helper()
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for e.Now() < cycle {
		e.Step()
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// readParentWritten returns what Decode makes of the checkpoint file, encoded
// again at Version: the file itself if it is of Version, its conversion if not.
func readParentWritten(t *testing.T, file string) (decoded []byte) {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	decoded = encodeBytes(t, snap)
	if binary.LittleEndian.Uint32(raw[4:8]) == Version && !bytes.Equal(decoded, raw) {
		t.Fatal("a checkpoint of the current version decodes and encodes to other bytes")
	}
	return decoded
}

// TestRestoreParentWrittenCheckpoint reads each checkpoint an earlier commit
// wrote. The engine's internals have changed since (buffers are runs, saves
// write into the snapshot's storage, a snapshot stores no derived state), but
// the run is the same: today's engine must write each file byte for byte —
// the file, or what it converts to — and must finish the run from it at 1, 2
// and 4 workers exactly as if it had never stopped.
func TestRestoreParentWrittenCheckpoint(t *testing.T) {
	for _, fx := range parentWritten {
		t.Run(fx.name, func(t *testing.T) {
			decoded := readParentWritten(t, fx.file)
			if !bytes.Equal(encodeBytes(t, snapshotAt(t, fx.cfg(), fx.cycle)), decoded) {
				t.Error("the same run at the same cycle no longer encodes to the bytes the parent commit's file decodes to")
			}
			golden, err := sim.New(fx.cfg())
			if err != nil {
				t.Fatal(err)
			}
			defer golden.Close()
			want := golden.Run()
			for _, workers := range []int{1, 2, 4} {
				snap, err := ReadFile(fx.file)
				if err != nil {
					t.Fatal(err)
				}
				cfg := fx.cfg()
				cfg.Workers = workers
				e, err := sim.RestoreEngine(cfg, snap)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got := e.Run(); got != want || counters(e) != counters(golden) {
					t.Errorf("workers=%d: resumed run diverged:\n got  %+v %v\n want %+v %v", workers, got, counters(e), want, counters(golden))
				}
				e.Close()
			}
		})
	}
}

// TestSnapshotIntoParentWrittenCheckpoint holds the storing form of Snapshot to
// the same fixtures: restored from the file, the engine snapshots into dirty
// storage — here a later, larger state of the same run, whose generator and
// limiter state differ — to the very bytes a new Snapshot encodes to, which
// are the file's, or its conversion's.
func TestSnapshotIntoParentWrittenCheckpoint(t *testing.T) {
	for _, fx := range parentWritten {
		t.Run(fx.name, func(t *testing.T) {
			decoded := readParentWritten(t, fx.file)
			snap, err := ReadFile(fx.file)
			if err != nil {
				t.Fatal(err)
			}
			e, err := sim.RestoreEngine(fx.cfg(), snap)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for i := 0; i < 400; i++ {
				e.Step()
			}
			var dirty sim.Snapshot
			if err := e.SnapshotInto(&dirty); err != nil {
				t.Fatal(err)
			}
			later := len(encodeBytes(t, &dirty))
			if err := e.Restore(snap); err != nil {
				t.Fatal(err)
			}
			fresh, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := e.SnapshotInto(&dirty); err != nil {
				t.Fatal(err)
			}
			got := encodeBytes(t, &dirty)
			if later <= len(got) {
				t.Fatalf("the dirtying state (%d bytes) is no larger than the fixture's (%d)", later, len(got))
			}
			if !bytes.Equal(got, encodeBytes(t, fresh)) {
				t.Error("SnapshotInto dirty storage and Snapshot encode the restored fixture differently")
			}
			if !bytes.Equal(got, decoded) {
				t.Error("SnapshotInto of the restored fixture no longer encodes to the bytes the parent commit's file decodes to")
			}
		})
	}
}

// frameAt wraps payload in a well-formed header of version v.
func frameAt(v uint32, payload []byte) []byte {
	out := frame(payload)
	binary.LittleEndian.PutUint32(out[4:8], v)
	return out
}

// TestWriteFileAtomic pins the no-torn-file contract: WriteFile replaces an
// existing checkpoint in place and leaves no temporary files behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.wncp")
	snap := midRunSnapshot(t)
	if err := WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, snap); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if _, err := ReadFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.Contains(ent.Name(), ".tmp-") {
			t.Errorf("temporary file left behind: %s", ent.Name())
		}
	}
	if err := WriteFile(filepath.Join(dir, "no-such-dir", "x.wncp"), snap); err == nil {
		t.Error("WriteFile into a missing directory succeeded")
	}
}

// TestDecodeCorruption drives every corruption mode through Decode and pins
// the typed error each must produce — a damaged checkpoint never restores
// silently, and never panics.
func TestDecodeCorruption(t *testing.T) {
	raw := encodeBytes(t, midRunSnapshot(t))

	check := func(name string, data []byte, want error) {
		t.Helper()
		snap, err := Decode(bytes.NewReader(data))
		if !errors.Is(err, want) {
			t.Errorf("%s: got %v, want %v", name, err, want)
		}
		if snap != nil {
			t.Errorf("%s: corrupted decode returned a snapshot", name)
		}
	}
	flip := func(i int) []byte {
		c := append([]byte(nil), raw...)
		c[i] ^= 0x40
		return c
	}

	check("empty", nil, ErrTruncated)
	check("header cut short", raw[:10], ErrTruncated)
	check("payload cut short", raw[:len(raw)-5], ErrTruncated)
	check("payload byte flipped", flip(headerSize+len(raw)/2), ErrChecksum)
	check("last byte flipped", flip(len(raw)-1), ErrChecksum)
	check("magic flipped", flip(0), ErrBadMagic)
	check("garbage", []byte("definitely not a checkpoint file, not even close"), ErrBadMagic)

	// Oversized length field: rejected before any allocation is attempted.
	huge := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(huge[8:16], maxPayload+1)
	check("length overflow", huge, ErrCorrupt)

	// CRC-consistent garbage payload: framing checks pass, gob must fail.
	junk := bytes.Repeat([]byte{0xA5}, 64)
	var buf bytes.Buffer
	var hdr [headerSize]byte
	copy(hdr[0:4], magic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(junk)))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.Checksum(junk, castagnoli))
	buf.Write(hdr[:])
	buf.Write(junk)
	check("valid frame, garbage gob", buf.Bytes(), ErrCorrupt)

	// A CRC-consistent garbage payload in a version-1 frame: the conversion
	// must fail as gob does.
	check("version-1 frame, garbage gob", frameAt(1, junk), ErrCorrupt)

	// Wrong version: *VersionError carrying the rejected version and naming
	// the versions Decode reads.
	for _, v := range []uint32{0, Version + 7} {
		vraw := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(vraw[4:8], v)
		var verr *VersionError
		if _, err := Decode(bytes.NewReader(vraw)); !errors.As(err, &verr) {
			t.Errorf("version %d: got %v, want *VersionError", v, err)
		} else if verr.Version != v || !strings.HasSuffix(err.Error(), "(supported: 1, 2)") {
			t.Errorf("version %d: VersionError carries %d and says %q", v, verr.Version, err)
		}
	}

	// ReadFile wraps decode errors with the path and keeps them matchable.
	path := filepath.Join(t.TempDir(), "bad.wncp")
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrTruncated) {
		t.Errorf("ReadFile(truncated): got %v, want ErrTruncated", err)
	} else if !strings.Contains(err.Error(), "bad.wncp") {
		t.Errorf("ReadFile error does not name the file: %v", err)
	}
}
