package serve

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

// TestDecodeSpecRejectsUngenerableGen: a gen spec with no unit and no
// random cell yields no movable cell, which the generator cannot place in a
// core, a pad count past the cap would exhaust memory in the generator, and
// the generator has no unit of an unknown name. All are malformed requests,
// answered with 400 before they are journaled.
func TestDecodeSpecRejectsUngenerableGen(t *testing.T) {
	for _, body := range []string{
		`{"gen":{}}`,
		`{"gen":{"units":["adder","bogus"],"random_cells":10}}`,
		`{"gen":{"units":[""]}}`,
		`{"gen":{"random_cells":10,"pads":10001}}`,
		`{"gen":{"random_cells":10,"pads":9000000000000000000}}`,
	} {
		_, err := DecodeSpec(strings.NewReader(body))
		if !errors.Is(err, pipeline.ErrMalformedInput) {
			t.Errorf("%s: err %v, want a malformed-input rejection", body, err)
		}
	}
}
