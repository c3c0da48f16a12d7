package render

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
)

const heteroFixture = "../topology/testdata/dual_hetero.json"

// The canonical hash of the dual_hetero fixture (core's heteroFixtureHash)
// and the SHA-256 of its `rtether backlog -dimension` document.
const (
	heteroHash          = "9605f081c3961002fdd4de9873276cf75ed4fc8fef591f0018e1082ef7bbb08b"
	heteroDimensionHash = "fca70e52afde7791503d762d526e0ae72965b61ef7a59c16b9652ace2bb88aff"
)

// TestBacklogDimensionLeavesScenario: rendering the dimensioned scenario
// encodes a copy. The caller's scenario keeps its canonical hash, and the
// emitted document is the same bytes on every call.
func TestBacklogDimensionLeavesScenario(t *testing.T) {
	sc, err := core.LoadScenario(heteroFixture)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		if err := Backlog(&buf, sc, true); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != heteroDimensionHash {
			t.Errorf("render %d: -dimension document SHA-256 = %s, want %s", i, got, heteroDimensionHash)
		}
		h, err := core.CanonicalHash(sc)
		if err != nil {
			t.Fatal(err)
		}
		if h != heteroHash {
			t.Fatalf("render %d: scenario hash moved to %s, want %s (the encoder mutated its input)", i, h, heteroHash)
		}
	}
}
