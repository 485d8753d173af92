package dataset

import (
	"bytes"
	"testing"
)

// FuzzReadMFPAC asserts the container reader never panics: arbitrary
// input either errors or decodes to a frame satisfying the arena
// invariants (dense packing, registered drives covering every row,
// strictly increasing days — AddDrive enforces the latter).
func FuzzReadMFPAC(f *testing.F) {
	frame, err := FrameFromDataset(randomDataset(1, 4))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeMFPAC(&buf, frame, 1, 8); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:mfpacHeaderLen])
	f.Add(append([]byte(nil), mfpacMagic[:]...))
	f.Add([]byte{})
	mut := append([]byte(nil), valid...)
	mut[len(mut)/3] ^= 0x40
	f.Add(mut)

	f.Fuzz(func(t *testing.T, input []byte) {
		got, err := readMFPAC(bytes.NewReader(input), len(input), 1)
		if err != nil {
			return
		}
		rows := 0
		for i := 0; i < got.Drives(); i++ {
			d := got.Drive(i)
			if int(d.Start) != rows {
				t.Fatalf("drive %d starts at %d, expected dense packing at %d", i, d.Start, rows)
			}
			rows += d.Rows()
		}
		if rows != got.Len() || got.Len() != len(got.day) {
			t.Fatalf("decoded frame not dense: %d drive rows, Len %d, arena %d",
				rows, got.Len(), len(got.day))
		}
	})
}
