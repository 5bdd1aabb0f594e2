package store

import (
	"bytes"
	"testing"
)

// FuzzReadArtifact holds the disk tier's record decoder to two
// promises: no input panics it, and the only inputs it accepts are the
// exact images encodeArtifact writes. The committed corpus under
// testdata/fuzz seeds a valid record, a key length that wraps the
// header bounds check, a truncated payload and a flipped checksum byte.
func FuzzReadArtifact(f *testing.F) {
	f.Add(encodeArtifact("hurst-0123456789abcdef", []byte("body\n")))
	f.Add(encodeArtifact("", nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		key, payload, err := decodeArtifact(data)
		if err != nil {
			return
		}
		if img := encodeArtifact(key, payload); !bytes.Equal(img, data) {
			t.Fatalf("accepted %q, which re-encodes as %q", data, img)
		}
	})
}
