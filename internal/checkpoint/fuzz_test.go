package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"wormnet/internal/sim"
)

// fuzzSeedSnapshot builds a tiny real snapshot for the fuzz seeds; the run is
// short so `go test` stays fast while the corpus still contains a genuine
// in-flight engine state.
func fuzzSeedSnapshot(tb testing.TB) *sim.Snapshot {
	tb.Helper()
	cfg := sim.QuickConfig()
	cfg.Rate = 1.5
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 300, 100
	e, err := sim.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer e.Close()
	for e.Now() < 250 {
		e.Step()
	}
	snap, err := e.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// fuzzSeeds returns the seed inputs: a valid checkpoint plus systematic
// header and payload mutations of it, and a few degenerate inputs.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, fuzzSeedSnapshot(tb)); err != nil {
		tb.Fatal(err)
	}
	valid := buf.Bytes()
	mutate := func(i int, x byte) []byte {
		c := append([]byte(nil), valid...)
		c[i] ^= x
		return c
	}
	seeds := [][]byte{
		valid,
		valid[:headerSize],          // header only, zero payload delivered
		valid[:len(valid)-1],        // one byte short
		valid[:headerSize/2],        // truncated header
		mutate(0, 0xFF),             // broken magic
		mutate(5, 0x01),             // bumped version
		mutate(9, 0x01),             // corrupted length
		mutate(17, 0x80),            // corrupted CRC
		mutate(headerSize+1, 0x20),  // corrupted gob type section
		mutate(len(valid)-2, 0x08),  // corrupted gob tail
		nil,                         // empty input
		[]byte("WNCP"),              // magic alone
		bytes.Repeat(valid, 2)[:64], // self-similar junk
	}
	// A frame whose CRC matches a garbage payload: exercises the gob layer.
	junk := bytes.Repeat([]byte{0x42, 0x07}, 24)
	seeds = append(seeds, frame(junk))
	return seeds
}

// frame wraps payload in a well-formed header (correct magic, version,
// length, CRC).
func frame(payload []byte) []byte {
	out := make([]byte, headerSize, headerSize+len(payload))
	copy(out[0:4], magic[:])
	binary.LittleEndian.PutUint32(out[4:8], Version)
	binary.LittleEndian.PutUint64(out[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[16:20], crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// FuzzCheckpointDecode is the robustness contract of the decoder: for any
// input whatsoever, Decode either returns a typed error or a snapshot that
// re-encodes cleanly — it never panics and never accepts a frame whose bytes
// were tampered with.
func FuzzCheckpointDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(bytes.NewReader(data))
		if err != nil {
			if snap != nil {
				t.Fatal("Decode returned both a snapshot and an error")
			}
			return
		}
		// Whatever decoded must be re-encodable; the gob round trip already
		// proved the field set is self-consistent.
		var buf bytes.Buffer
		if err := Encode(&buf, snap); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed fuzz corpus under
// testdata/fuzz/FuzzCheckpointDecode from the current seed set, as
// v2-seed-NN: the frames of Version. The seed-NN files are version-1 frames
// of the first snapshot layout, kept to fuzz its conversion. It only runs
// when WORMNET_REGEN_CORPUS=1, after snapshot-format changes:
//
//	WORMNET_REGEN_CORPUS=1 go test ./internal/checkpoint -run TestWriteFuzzCorpus
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WORMNET_REGEN_CORPUS") == "" {
		t.Skip("set WORMNET_REGEN_CORPUS=1 to regenerate the committed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range fuzzSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		name := filepath.Join(dir, fmt.Sprintf("v%d-seed-%02d", Version, i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
