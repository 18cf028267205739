package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"testing"
)

type journalPayload struct {
	Name     string
	Counter  int64
	Frontier [][]byte
}

func TestValueRoundTrip(t *testing.T) {
	in := journalPayload{
		Name:     "explore",
		Counter:  42,
		Frontier: [][]byte{{1, 2, 3}, {4}},
	}
	var buf bytes.Buffer
	if err := EncodeValue(&buf, &in); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeValue[journalPayload](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Counter != in.Counter || len(out.Frontier) != 2 {
		t.Fatalf("round trip: %+v", out)
	}

	path := filepath.Join(t.TempDir(), "journal.wncp")
	if err := WriteFileValue(path, &in); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFileValue[journalPayload](path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Counter != in.Counter {
		t.Fatalf("file round trip: %+v", back)
	}
}

func TestValueCorruptionTyped(t *testing.T) {
	in := journalPayload{Name: "x"}
	var buf bytes.Buffer
	if err := EncodeValue(&buf, &in); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xFF
	if _, err := DecodeValue[journalPayload](bytes.NewReader(raw)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped payload byte: err = %v, want ErrChecksum", err)
	}
}

// TestValueVersionOne pins that every payload, a snapshot as much as a
// model-checker journal or counterexample, is read at Version alone: a
// version-1 or version-2 frame is refused with a *VersionError that names the
// one version DecodeValue reads.
func TestValueVersionOne(t *testing.T) {
	var journal bytes.Buffer
	if err := EncodeValue(&journal, &journalPayload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name   string
		frame  []byte
		decode func(io.Reader) error
	}{
		{"journal", journal.Bytes(), func(r io.Reader) error { _, err := DecodeValue[journalPayload](r); return err }},
		{"snapshot", encodeBytes(t, fuzzSeedSnapshot(t)), func(r io.Reader) error { _, err := Decode(r); return err }},
	} {
		for _, v := range []uint32{1, 2} {
			var verr *VersionError
			err := in.decode(bytes.NewReader(frameAt(v, in.frame[headerSize:])))
			want := fmt.Sprintf("checkpoint: unsupported format version %d (supported: 3)", v)
			if !errors.As(err, &verr) || verr.Version != v || verr.Oldest != Version || err.Error() != want {
				t.Fatalf("version-%d %s: got %v, want a *VersionError naming version 3", v, in.name, err)
			}
		}
	}
}
