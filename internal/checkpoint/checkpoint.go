// Package checkpoint persists engine snapshots (sim.Snapshot) as versioned,
// self-describing binary files, and restores them with loud, typed failures
// on any corruption — a damaged checkpoint must never restore silently.
//
// File format (little-endian):
//
//	offset  size  field
//	0       4     magic "WNCP"
//	4       4     format version (uint32)
//	8       8     payload length in bytes (uint64)
//	16      4     CRC-32C (Castagnoli) of the payload
//	20      n     payload: gob-encoded sim.Snapshot
//
// The gob payload is self-describing (field names and types travel with the
// data), so adding fields to the snapshot is backward-compatible within a
// format version; incompatible changes bump Version. The CRC is checked
// before the payload is decoded, so gob never sees corrupted bytes.
//
// Decode reads one version, Version, for snapshots and every other payload
// (the model checker's journals and counterexamples) alike, and refuses any
// other with a *VersionError. A checkpoint of a retired layout is not
// converted: the run it would resume starts over (a campaign restarts the
// point from cycle 0).
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"wormnet/internal/sim"
)

// Version is the current checkpoint format version.
const Version = 3

// magic identifies a checkpoint file.
var magic = [4]byte{'W', 'N', 'C', 'P'}

// headerSize is the fixed prefix before the payload.
const headerSize = 4 + 4 + 8 + 4

// maxPayload bounds the payload size a decoder will accept (1 GiB) so a
// corrupted length field cannot drive a huge allocation.
const maxPayload = 1 << 30

// Typed decode errors. Decode wraps them with context; errors.Is matches.
var (
	// ErrBadMagic marks a file that is not a checkpoint at all.
	ErrBadMagic = errors.New("checkpoint: bad magic (not a checkpoint file)")
	// ErrTruncated marks a checkpoint cut short (header or payload).
	ErrTruncated = errors.New("checkpoint: truncated file")
	// ErrChecksum marks payload bytes that fail the CRC.
	ErrChecksum = errors.New("checkpoint: checksum mismatch (corrupted payload)")
	// ErrCorrupt marks a payload that passes the CRC but does not decode —
	// practically, a checkpoint written by an incompatible snapshot layout.
	ErrCorrupt = errors.New("checkpoint: undecodable payload")
)

// VersionError reports a checkpoint written with an unsupported format
// version. Oldest is the oldest version the reader takes: the current
// Version, the only one.
type VersionError struct {
	Version, Oldest uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: unsupported format version %d (supported: %d)", e.Version, e.Oldest)
}

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode writes snap to w in the checkpoint format.
func Encode(w io.Writer, snap *sim.Snapshot) error {
	return EncodeValue(w, snap)
}

// EncodeValue writes any gob-encodable value to w in the WNCP framing
// (magic, version, length, CRC-32C). The snapshot functions delegate here;
// other subsystems (the model checker's exploration journal and
// counterexample files) reuse the same framing and corruption guarantees
// for their own payload types. The frame does not record the payload type:
// decoding a frame into the wrong Go type fails as ErrCorrupt at best —
// keep distinct payloads in distinct files.
func EncodeValue[T any](w io.Writer, v *T) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return fmt.Errorf("checkpoint: encode payload: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[0:4], magic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.Checksum(payload.Bytes(), castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("checkpoint: write header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("checkpoint: write payload: %w", err)
	}
	return nil
}

// Decode reads one checkpoint from r. Every corruption mode returns a typed
// error: ErrBadMagic, ErrTruncated, ErrChecksum, ErrCorrupt or a
// *VersionError.
func Decode(r io.Reader) (*sim.Snapshot, error) {
	return DecodeValue[sim.Snapshot](r)
}

// DecodeValue reads one WNCP frame of Version from r and gob-decodes its
// payload into a T. Same typed errors as Decode.
func DecodeValue[T any](r io.Reader) (*T, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if !bytes.Equal(hdr[0:4], magic[:]) {
		return nil, ErrBadMagic
	}
	if version := binary.LittleEndian.Uint32(hdr[4:8]); version != Version {
		return nil, &VersionError{Version: version, Oldest: Version}
	}
	length := binary.LittleEndian.Uint64(hdr[8:16])
	if length > maxPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrCorrupt, length)
	}
	want := binary.LittleEndian.Uint32(hdr[16:20])
	// Stream the payload through a bounded buffer rather than allocating
	// length bytes up front: a lying length field on a short file fails as
	// truncation, not as a giant allocation.
	var payload bytes.Buffer
	n, err := io.CopyN(&payload, r, int64(length))
	if err != nil || uint64(n) != length {
		return nil, fmt.Errorf("%w: payload has %d of %d bytes", ErrTruncated, n, length)
	}
	if got := crc32.Checksum(payload.Bytes(), castagnoli); got != want {
		return nil, fmt.Errorf("%w: crc %08x, header says %08x", ErrChecksum, got, want)
	}
	return decodeGob[T](payload.Bytes())
}

// decodeGob decodes a checked payload, converting any gob failure — error or
// panic (gob can panic on adversarial self-describing streams) — into
// ErrCorrupt.
func decodeGob[T any](payload []byte) (v *T, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, fmt.Errorf("%w: %v", ErrCorrupt, r)
		}
	}()
	v = new(T)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return v, nil
}

// WriteFile atomically writes snap to path (WriteAtomic), so a crash
// mid-write never leaves a half-written checkpoint under the final name.
func WriteFile(path string, snap *sim.Snapshot) error {
	return WriteFileValue(path, snap)
}

// WriteFileValue atomically writes any gob-encodable value to path in the
// WNCP framing, with the same discipline as WriteFile.
func WriteFileValue[T any](path string, v *T) error {
	return WriteAtomic(path, func(w io.Writer) error { return EncodeValue(w, v) })
}

// WriteAtomic replaces path with what write writes: the bytes land in a
// temporary file in the same directory, are synced, and replace path with a
// rename. A crash or a failing write never leaves a torn file under the final
// name — whatever path held before stays whole — and the temporary file is
// removed whatever happens. write's own error comes back as it is.
func WriteAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup; gone after rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// ReadFile reads and decodes the checkpoint at path.
func ReadFile(path string) (*sim.Snapshot, error) {
	return ReadFileValue[sim.Snapshot](path)
}

// ReadFileValue reads and decodes a WNCP-framed value of type T at path.
func ReadFileValue[T any](path string) (*T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	v, err := DecodeValue[T](bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return v, nil
}
