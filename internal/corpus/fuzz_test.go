package corpus

import (
	"math"
	"testing"
)

// FuzzDecodeEntry holds the corpus wire decoder to two promises on any
// input: it never panics, and an entry it accepts re-encodes to bytes
// that decode to the identical entry, every variable bit for bit (NaN
// travels as null). The committed corpus holds a seed entry, an upload,
// a nameless swfvars- characterization, null cells and a wrong kind.
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEntry(data)
		if err != nil {
			return
		}
		img, err := EncodeEntry(e)
		if err != nil {
			t.Fatalf("accepted %q, which does not re-encode: %v", data, err)
		}
		back, err := DecodeEntry(img)
		if err != nil {
			t.Fatalf("re-encoded %q does not decode: %v", img, err)
		}
		if !sameEntry(e, back) {
			t.Fatalf("accepted %q as %+v, which round-trips to %+v", data, e, back)
		}
	})
}

// sameEntry reports whether a and b agree in every field, comparing
// the variables by their bits.
func sameEntry(a, b *Entry) bool {
	if a.ID != b.ID || a.Name != b.Name || a.Source != b.Source || a.Jobs != b.Jobs || len(a.Vars) != len(b.Vars) {
		return false
	}
	for i := range a.Vars {
		if math.Float64bits(a.Vars[i]) != math.Float64bits(b.Vars[i]) {
			return false
		}
	}
	return true
}
