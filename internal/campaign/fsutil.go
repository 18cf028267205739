package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"wormnet/internal/checkpoint"
)

// shortHash fingerprints a config digest (a long key=value line) to 12 hex
// digits for log lines and error messages.
func shortHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:6])
}

// writeFileAtomic lands data under path with checkpoint.WriteAtomic, so a
// crash mid-write never leaves a torn file under the final name.
func writeFileAtomic(path string, data []byte) error {
	return checkpoint.WriteAtomic(path, func(w io.Writer) error {
		if _, err := w.Write(data); err != nil {
			return fmt.Errorf("campaign: write %s: %w", path, err)
		}
		return nil
	})
}

// jsonMarshalIndent is the journal's JSON rendering (trailing newline, two
// space indent, like the manifest).
func jsonMarshalIndent(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
