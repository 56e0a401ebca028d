package cache

import (
	"bytes"
	"testing"

	"nocvi/internal/core"
	"nocvi/internal/model"
)

// FuzzDecodeResult feeds arbitrary bytes to the result decoder, the
// cache's untrusted input. Decoding must never panic, and a blob it
// accepts must be the canonical encoding of what it decoded: encoding
// the result again gives the blob back byte for byte, so no two blobs
// decode to the same result. The seeds are encodings of small
// synthesis results: plain, survivable (backup routes) and truncated
// to one point.
func FuzzDecodeResult(f *testing.F) {
	lib := model.Default65nm()
	spec := smallSpec(f)
	survivable := testOptions()
	survivable.Survivability = 1
	single := testOptions()
	single.MaxDesignPoints = 1
	for _, opt := range []core.Options{testOptions(), survivable, single} {
		res, err := core.Synthesize(spec, lib, opt)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(EncodeResult(res))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		res, err := DecodeResult(blob, spec, lib)
		if err != nil {
			return
		}
		if again := EncodeResult(res); !bytes.Equal(again, blob) {
			t.Fatalf("decoded blob re-encodes differently: %d bytes in, %d out", len(blob), len(again))
		}
	})
}

// TestDecodeRejectsOversizedSwitchCount pins the decoder's switch cap:
// a topology claiming more switches than any engine design of the spec
// can hold is corrupt, before its dense link index is ever laid out.
func TestDecodeRejectsOversizedSwitchCount(t *testing.T) {
	spec := smallSpec(t)
	lib := model.Default65nm()
	blob := func(nSw int) []byte {
		e := &enc{}
		e.bool(false) // no intermediate island
		isl := make([]float64, len(spec.Islands))
		e.f64s(isl)
		e.f64s(isl)
		e.u64(uint64(nSw))
		for i := 0; i < nSw; i++ {
			e.int(0)
			e.bool(false)
		}
		return append(e.b, make([]byte, 64)...) // room for the rest
	}
	max := 3 * len(spec.Cores)
	if _, err := decodeTopology(&dec{b: blob(max + 1)}, spec, lib); err != errCorrupt {
		t.Fatalf("%d switches for %d cores: err %v, want errCorrupt", max+1, len(spec.Cores), err)
	}
}
