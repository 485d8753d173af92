package dataset

// The MFPAC block codec. A block is up to blockRows drive-day rows,
// encoded column-major so every slab compresses against its own
// history: days as zigzag-varint deltas, the interpolated flags as a
// bitmap, firmware codes as uvarints, and each float64 SMART/W/B
// column in whichever of three encodings is smallest for that column
// in that block —
//
//	modeRaw       8 bytes per value, the fallback for noisy columns;
//	modeXor       uvarint of the value's bits XOR the previous row's
//	              bits in the same column (slow-moving gauges XOR to
//	              mostly-zero low words);
//	modeIntDelta  zigzag uvarint of the int64 delta, only when every
//	              value round-trips float64→int64→float64 bit-exactly
//	              (event counters and integer-valued SMART attributes
//	              collapse to ~1 byte per value).
//
// Mode choice is by exact encoded size, computed before encoding, so
// output is deterministic; every value reproduces its original bits
// exactly, which is what lets the bench equivalence gate compare MFPAC
// loads against the CSV twin with math.Float64bits.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

const (
	mfpacModeRaw      = 0
	mfpacModeXor      = 1
	mfpacModeIntDelta = 2
)

// zigzag folds signed deltas into uvarint-friendly magnitudes.
func mfpacZigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func mfpacUnzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen is the encoded size of v without encoding it.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// mfpacEncoder is the reusable per-block scratch.
type mfpacEncoder struct {
	col []float64 // gathered column values
}

// encodeMFPACBlock appends the block payload for the packed rows src
// (arena row indexes) to dst and returns it.
func encodeMFPACBlock(dst []byte, enc *mfpacEncoder, f *Frame, src []int32) []byte {
	n := len(src)

	// Days: zigzag deltas, previous value starting at zero so each
	// block decodes independently.
	prev := int64(0)
	for _, row := range src {
		d := int64(f.day[row])
		dst = binary.AppendUvarint(dst, mfpacZigzag(d-prev))
		prev = d
	}

	// Interpolated flags: bitmap.
	bitmapLen := (n + 7) / 8
	base := len(dst)
	dst = append(dst, make([]byte, bitmapLen)...)
	for i, row := range src {
		if f.interp[row] {
			dst[base+i/8] |= 1 << (i % 8)
		}
	}

	// Firmware codes.
	for _, row := range src {
		dst = binary.AppendUvarint(dst, uint64(f.fw[row]))
	}

	// Float slabs, column by column within each section.
	if cap(enc.col) < n {
		enc.col = make([]float64, n)
	}
	col := enc.col[:n]
	for _, sec := range [3]struct {
		slab  []float64
		width int
	}{{f.smart, smartWidth}, {f.w, wWidth}, {f.b, bWidth}} {
		for c := 0; c < sec.width; c++ {
			for i, row := range src {
				col[i] = sec.slab[int(row)*sec.width+c]
			}
			dst = appendMFPACColumn(dst, col)
		}
	}
	return dst
}

// appendMFPACColumn picks the smallest of the three column encodings
// and appends a mode byte plus the encoded slab.
func appendMFPACColumn(dst []byte, col []float64) []byte {
	rawSize := 8 * len(col)

	xorSize := 0
	prevBits := uint64(0)
	for _, v := range col {
		b := math.Float64bits(v)
		xorSize += uvarintLen(b ^ prevBits)
		prevBits = b
	}

	intSize := 0
	intOK := true
	prevInt := int64(0)
	for _, v := range col {
		// Conversion of out-of-range floats to int64 is not portable,
		// so bound first; the bit-exactness test then rejects -0, NaN,
		// infinities, and fractions in one comparison.
		if !(v >= -9.2e18 && v <= 9.2e18) {
			intOK = false
			break
		}
		iv := int64(v)
		if math.Float64bits(float64(iv)) != math.Float64bits(v) {
			intOK = false
			break
		}
		intSize += uvarintLen(mfpacZigzag(int64(uint64(iv) - uint64(prevInt))))
		prevInt = iv
	}

	switch {
	case intOK && intSize <= xorSize && intSize <= rawSize:
		dst = append(dst, mfpacModeIntDelta)
		prevInt = 0
		for _, v := range col {
			iv := int64(v)
			dst = binary.AppendUvarint(dst, mfpacZigzag(int64(uint64(iv)-uint64(prevInt))))
			prevInt = iv
		}
	case xorSize <= rawSize:
		dst = append(dst, mfpacModeXor)
		prevBits = 0
		for _, v := range col {
			b := math.Float64bits(v)
			dst = binary.AppendUvarint(dst, b^prevBits)
			prevBits = b
		}
	default:
		dst = append(dst, mfpacModeRaw)
		for _, v := range col {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// mfpacCursor is a bounds-checked reader over one payload; every
// decode path reports malformed input as an error, never a panic.
type mfpacCursor struct {
	b   []byte
	off int
}

func (c *mfpacCursor) uvarint() (uint64, error) {
	v, next, err := mfpacUvarintAt(c.b, c.off)
	if err != nil {
		return 0, err
	}
	c.off = next
	return v, nil
}

func (c *mfpacCursor) bytes(n int) ([]byte, error) {
	if n < 0 || n > len(c.b)-c.off {
		return nil, fmt.Errorf("%d bytes wanted at offset %d, %d remain", n, c.off, len(c.b)-c.off)
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b, nil
}

// mfpacUvarintAt decodes the uvarint at b[off:] (off <= len(b)) and
// returns it with the offset just past it. Most column values encode in
// one byte; the four block decode loops test that case inline and call
// this only for longer values. The one-byte test is copied into each
// loop rather than moved in here because a function holding it and this
// fallback call does not inline (go1.24 cost 95, budget 80), and a call
// per value made BenchmarkTelemetryRead/mfpac-file ~40% slower.
func mfpacUvarintAt(b []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, off, fmt.Errorf("bad uvarint at offset %d", off)
	}
	return v, off + n, nil
}

// decodeMFPACBlock decodes one block payload into arena rows
// [rowStart, rowStart+n) of f. nfw bounds the firmware codes the block
// may reference.
//
// Precondition: those rows of f are still zero, as in a fresh
// NewFrameArena. The float columns skip storing zero values (most W/B
// columns are zero runs), so decoding into used rows would leave stale
// values behind.
func decodeMFPACBlock(payload []byte, f *Frame, rowStart, n, nfw int) error {
	b, off := payload, 0
	var err error

	prev := int64(0)
	days := f.day[rowStart : rowStart+n]
	for i := range days {
		var u uint64
		if off < len(b) && b[off] < 0x80 {
			u, off = uint64(b[off]), off+1
		} else if u, off, err = mfpacUvarintAt(b, off); err != nil {
			return fmt.Errorf("day column: %w", err)
		}
		prev += mfpacUnzigzag(u)
		if prev < 0 || prev > math.MaxInt32 {
			return fmt.Errorf("day column: day %d out of range", prev)
		}
		days[i] = int32(prev)
	}

	c := mfpacCursor{b: payload, off: off}
	bitmap, err := c.bytes((n + 7) / 8)
	if err != nil {
		return fmt.Errorf("interpolated bitmap: %w", err)
	}
	for i := 0; i < n; i++ {
		f.interp[rowStart+i] = bitmap[i/8]&(1<<(i%8)) != 0
	}

	off = c.off
	fws := f.fw[rowStart : rowStart+n]
	for i := range fws {
		var u uint64
		if off < len(b) && b[off] < 0x80 {
			u, off = uint64(b[off]), off+1
		} else if u, off, err = mfpacUvarintAt(b, off); err != nil {
			return fmt.Errorf("firmware column: %w", err)
		}
		if u >= uint64(nfw) {
			return fmt.Errorf("firmware column: code %d out of table (%d entries)", u, nfw)
		}
		fws[i] = int32(u)
	}

	c.off = off
	for _, sec := range [3]struct {
		slab  []float64
		width int
	}{{f.smart, smartWidth}, {f.w, wWidth}, {f.b, bWidth}} {
		for col := 0; col < sec.width; col++ {
			if err := decodeMFPACColumn(&c, sec.slab, sec.width, col, rowStart, n); err != nil {
				return fmt.Errorf("float column: %w", err)
			}
		}
	}
	if c.off != len(payload) {
		return fmt.Errorf("%d trailing bytes", len(payload)-c.off)
	}
	return nil
}

// decodeMFPACColumn decodes one float column slab into rows
// [rowStart, rowStart+n) of column col of the strided slab, storing
// only non-zero values (see decodeMFPACBlock's precondition).
func decodeMFPACColumn(c *mfpacCursor, slab []float64, width, col, rowStart, n int) error {
	mode, err := c.bytes(1)
	if err != nil {
		return err
	}
	at := rowStart*width + col // slab index of the current row
	switch mode[0] {
	case mfpacModeRaw:
		raw, err := c.bytes(8 * n)
		if err != nil {
			return err
		}
		for i := 0; i < n; i, at = i+1, at+width {
			if bits := binary.LittleEndian.Uint64(raw[8*i:]); bits != 0 {
				slab[at] = math.Float64frombits(bits)
			}
		}
	case mfpacModeXor:
		b, off := c.b, c.off
		prev := uint64(0)
		for i := 0; i < n; i, at = i+1, at+width {
			var u uint64
			if off < len(b) && b[off] < 0x80 {
				u, off = uint64(b[off]), off+1
			} else if u, off, err = mfpacUvarintAt(b, off); err != nil {
				return err
			}
			if prev ^= u; prev != 0 {
				slab[at] = math.Float64frombits(prev)
			}
		}
		c.off = off
	case mfpacModeIntDelta:
		b, off := c.b, c.off
		prev := int64(0)
		for i := 0; i < n; i, at = i+1, at+width {
			var u uint64
			if off < len(b) && b[off] < 0x80 {
				u, off = uint64(b[off]), off+1
			} else if u, off, err = mfpacUvarintAt(b, off); err != nil {
				return err
			}
			if prev = int64(uint64(prev) + uint64(mfpacUnzigzag(u))); prev != 0 {
				slab[at] = float64(prev)
			}
		}
		c.off = off
	default:
		return fmt.Errorf("unknown column mode %d", mode[0])
	}
	return nil
}
