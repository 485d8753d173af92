package modelio

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/core"
)

// marshalDigests pins the sha256 of Marshal's bytes for each
// algorithm's shared model. An output change made on purpose updates
// the table and says why in CHANGES.md.
var marshalDigests = map[core.Algorithm]string{
	core.AlgoRF:      "845f42f95f0ec0d25e39ceaea8ea2f775a12dc5e66cc689bf56bbf91a647a183",
	core.AlgoGBDT:    "dc57ae80d37ba160cf91ba187aba8882ba2bb0344da0438601d37f24d7392fea",
	core.AlgoBayes:   "09a87b47b81db48756096b46d8742309d358b4b65275d2cf1c17e1a0536ae497",
	core.AlgoSVM:     "8c0f182be750e145a5d3554d296d0f6a2be26b18ea66fc827df3a97eabe145ed",
	core.AlgoCNNLSTM: "f50c5d3c93775f1d9090a7bfa0550a4c2ffaef7374945fd180d8b85eca4a8b32",
}

// TestMarshalDigests pins every algorithm's trained model, byte for
// byte, on amd64 only: other architectures' compilers fuse x*y+z into
// one rounding, and math.Exp has an amd64 assembly path, so their
// fits may differ in the last bit.
func TestMarshalDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests pinned on amd64; %s may fuse multiply-adds and has no amd64 math.Exp", runtime.GOARCH)
	}
	for _, algo := range core.Algorithms() {
		b, err := Marshal(trainedModel(t, algo))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		sum := sha256.Sum256(b)
		if got, want := hex.EncodeToString(sum[:]), marshalDigests[algo]; got != want {
			t.Errorf("%s: Marshal digest %s, pinned %s", algo, got, want)
		}
	}
}
