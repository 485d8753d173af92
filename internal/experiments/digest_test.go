package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
)

// experimentDigests pins the sha256 of every registry experiment's
// rendering on testCtx (Fig 20's untimed fields, see untimedRendering).
// An output change made on purpose updates the table and says why in
// CHANGES.md.
var experimentDigests = map[string]string{
	"table1":       "4b7b8adfca3d839cee76e564ade0f6fe10b384dac670012c8932ab87afc8f96e",
	"table2":       "bc94e0fc6d706b27c8ec14fe4146f8ae882d52e7f75232b3743b27c83a3d52c4",
	"table5":       "5831b4baad530036db89509280993af125e63f1b8d691bdf20f3edabfb4ea26e",
	"table6":       "3fc5e523847014d6e074043e72039d9956296326917fe25f5990569d011fc391",
	"fig2":         "24d762c52718490f173c0010fd2ba4f1c940801ced18d29471d3e3175b880bf4",
	"fig3":         "172074c7227ae295d18d82556503f287813864681978a2b4f7be894a427cc807",
	"fig4":         "a94d0f83024d55237089f324c5542f3aeb92dfadba02e8f444c6a2c02c47de4a",
	"fig5":         "7d7caf66c7f57b11931ec53bc590f9aa32b105a44edb7dc59a74b23533532d13",
	"fig6":         "a6d8a64db4feab434a4aa1f6f22344c56c6e774525f4d38b599005550c91225a",
	"fig9":         "f674b58ea7e6215d46a259024307c050bc19502c9ddca78ba3b42afecce5bd8e",
	"fig10":        "761c82d5a6ff9f68e83ca38f6525a873bca47c52abf3bfb89e9a23e23492454a",
	"fig11":        "fb095c1c5f2102ee0ab563709fe07de2c7e4e731389b0c0cfa580fd430218b99",
	"fig12":        "253b48f4ed45abf1e96c983675046dd65b2f56c235f79d7ac22f8abe1e622a42",
	"fig17":        "41f6a3d2e2c1d171e39325c55bb97447c95b361e642812e1b5b850b8c1a9f35f",
	"fig18":        "7b53a76a9e7679e04a70df1a9afb431ebd313d6c9666c50beda45bb8142c74d9",
	"fig19":        "a53d1fcbfb409e9606aa344f392cc3e4025f25e5c78049d27d5a7f7d92ed3053",
	"fig20":        "67fd804bbe6f5d0a41ec868d606098bf97d0e6df9d20a1c534a3563718a9389c",
	"gridsearch":   "207c068b1c8127cc73733e96645eddcfbe3e3b250820426555099b9623edff16",
	"importance":   "853255217efbe7d1b2f6ba832d7c7d8ca90b1b794d121a35c76a7e2b10e3d01b",
	"channels":     "d6f5c231998ccf4d75fd6f48601bf14ee20375262d1bf6531772b143fc26be08",
	"seeds":        "e35f41be5a8881dbd1df65e034ce116461e8b591b4dde56be579592b04517206",
	"costs":        "c00e4fa533950c79b23156f3e010f549c3d0b5baa37fe166badbc289be53a4a6",
	"theta":        "15c6a56a7b62372232a05a9ff2fb0f4d96fb6effdb86fe923f26d67d96e3a035",
	"gaps":         "fda09c503e40285b09e7f0fde0a04407cf6f66bba808771e415ba5dd516833fc",
	"segmentation": "b5625de4ee3843116871725eb0861f5be495d0a17a1525b0d34941909b7b523d",
	"crossval":     "547de8a1c3f4af27569b246b55a12f7bed2811579ce6641e1dafc392765fac63",
	"ratio":        "8ebd9d5f103ab57b2279e82672e7aaa37e1e750ed162fc3d7fd4ee0ca589cea9",
	"cumulative":   "5e91e8e5bcf2da5ddeb858e5fd2cc99627c669a836383a3534ec364f00b2eb12",
	"poswindow":    "9da42fae08f8ed93ba4e8825be15fdd870982c2e06db55b0e0b46bcbb757dad6",
}

// untimedRendering is what the digest covers: the experiment's String,
// except for Fig 20, whose time and prediction-rate fields are wall
// clock; there it is each stage's name, items and bytes.
func untimedRendering(res fmt.Stringer) string {
	f, ok := res.(*Fig20Result)
	if !ok {
		return res.String()
	}
	s := ""
	for _, st := range f.Stages {
		s += fmt.Sprintf("%s\t%d\t%d\n", st.Stage, st.Items, st.Bytes)
	}
	return s
}

// TestExperimentDigests pins every experiment's output on amd64 only:
// other architectures' compilers fuse x*y+z into one rounding, and
// math.Exp has an amd64 assembly path, so their fits may differ in the
// last bit.
func TestExperimentDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests pinned on amd64; %s may fuse multiply-adds and has no amd64 math.Exp", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("renders all 29 experiments")
	}
	c := testCtx(t)
	for _, r := range Registry() {
		res, err := r.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		sum := sha256.Sum256([]byte(untimedRendering(res)))
		if got, want := hex.EncodeToString(sum[:]), experimentDigests[r.Name]; got != want {
			t.Errorf("%s: digest %s, pinned %s", r.Name, got, want)
		}
	}
}
