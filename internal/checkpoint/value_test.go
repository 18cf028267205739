package checkpoint

import (
	"bytes"
	"errors"
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

// TestValueVersionOne pins that only a snapshot converts from a version-1
// frame: any other payload (a model-checker journal or counterexample) is read
// at Version alone, and a version-1 one is refused with a *VersionError that
// names the one version DecodeValue reads.
func TestValueVersionOne(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeValue(&buf, &journalPayload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	old := frameAt(1, buf.Bytes()[headerSize:])
	var verr *VersionError
	_, err := DecodeValue[journalPayload](bytes.NewReader(old))
	if !errors.As(err, &verr) || verr.Version != 1 || err.Error() != "checkpoint: unsupported format version 1 (supported: 2)" {
		t.Fatalf("version-1 journal: got %v, want a *VersionError naming version 2", err)
	}
}
