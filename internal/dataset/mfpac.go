package dataset

// MFPAC (Multidimensional-Features-PAper Container) is the repository's
// binary columnar telemetry interchange format — the durable twin of
// the in-memory Frame arena. Where the CSV path pays per-field strconv
// on ~90 columns per drive-day, an .mfpac file stores each column as a
// compact block slab (delta+varint for int-like columns, raw or
// XOR/int-delta float64 slabs for SMART/W/B) so a fleet loads straight
// into pre-sized Frame columns with no intermediate []Record, and the
// independent blocks encode and decode in parallel through
// internal/parallel (byte-identical output at any worker count).
//
// File layout (all little-endian):
//
//	header   magic, version, flags, column widths, block geometry,
//	         row/drive/block counts, header CRC32
//	blocks   per block: u32 payload length, u32 payload CRC32, payload
//	footer   drive table (string-table refs + row counts), firmware
//	         table, string table, per-block payload sizes
//	trailer  u32 footer length, u32 footer CRC32, closing magic
//
// Within a block payload the sections are: day (zigzag-varint deltas),
// interpolated (bitmap), firmware codes (uvarint), then one slab per
// SMART/W/B column, each tagged with the encoding mode that was
// smallest for that column in that block (see mfpac_codec.go).
//
// The trailer makes the footer locatable from the end of the file, so
// the reader knows every drive range and block offset before touching
// a single row: it pre-sizes the arena once and decodes blocks into
// disjoint row ranges concurrently.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/firmware"
	"repro/internal/parallel"
)

// mfpacMagic opens and closes every .mfpac file. The PNG-style prefix
// byte keeps the file from ever being mistaken for CSV (or surviving a
// text-mode transfer unnoticed).
var mfpacMagic = [8]byte{0x89, 'M', 'F', 'P', 'A', 'C', 0x1A, 0x0A}

const (
	mfpacVersion = 1

	// mfpacHeaderLen is the fixed on-disk header size; see writeHeader.
	mfpacHeaderLen = 44
	// mfpacTrailerLen is footer length + footer CRC + closing magic.
	mfpacTrailerLen = 4 + 4 + 8

	// mfpacBlockRows is the default rows-per-block. 4096 drive-days
	// keep a block's slabs (~90 columns) inside a few hundred KB of
	// scratch while leaving fleet-scale files with hundreds of blocks
	// to fan out across workers.
	mfpacBlockRows = 4096

	// flag bits of the header flags field.
	mfpacFlagCumulated = 1 << 0
)

// Format names a telemetry container format.
type Format string

// The supported telemetry container formats.
const (
	FormatCSV   Format = "csv"
	FormatMFPAC Format = "mfpac"
)

// ParseFormat resolves a -format flag value.
func ParseFormat(s string) (Format, bool) {
	switch Format(strings.ToLower(s)) {
	case FormatCSV:
		return FormatCSV, true
	case FormatMFPAC:
		return FormatMFPAC, true
	}
	return "", false
}

// FormatForPath picks the container format a path implies: .mfpac
// means the binary container, anything else the CSV compat path.
func FormatForPath(path string) Format {
	if strings.EqualFold(filepath.Ext(path), ".mfpac") {
		return FormatMFPAC
	}
	return FormatCSV
}

// WriteTelemetry writes the frame in the given format.
func WriteTelemetry(w io.Writer, f *Frame, format Format) error {
	switch format {
	case FormatMFPAC:
		return WriteMFPAC(w, f)
	case FormatCSV, "":
		return WriteCSVFrame(w, f)
	}
	return fmt.Errorf("dataset: unknown telemetry format %q", format)
}

// ReadTelemetry loads telemetry of either format, sniffing the MFPAC
// magic bytes: .mfpac containers decode through the block-parallel
// codec, anything else goes through the CSV compat reader.
func ReadTelemetry(r io.Reader) (*Frame, error) {
	return ReadTelemetryWorkers(r, 0)
}

// ReadTelemetryWorkers is ReadTelemetry with an explicit decode
// worker count (0 = GOMAXPROCS, 1 = serial; the frame is identical).
func ReadTelemetryWorkers(r io.Reader, workers int) (*Frame, error) {
	size := readerSize(r)
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(mfpacMagic))
	if err == nil && bytes.Equal(head, mfpacMagic[:]) {
		return readMFPAC(br, size, workers)
	}
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("dataset: detect telemetry format: %w", err)
	}
	return ReadCSVFrame(br)
}

// WriteMFPAC serialises the frame as an MFPAC container. Drives are
// written in registration order; arena slack rows are not stored, so
// the file always describes a dense frame.
func WriteMFPAC(w io.Writer, f *Frame) error {
	return WriteMFPACWorkers(w, f, 0)
}

// WriteMFPACWorkers is WriteMFPAC with an explicit encode worker count
// (0 = GOMAXPROCS, 1 = serial). The bytes written are identical at any
// worker count: workers encode independent blocks into pooled buffers
// and the stream is assembled in block order.
func WriteMFPACWorkers(w io.Writer, f *Frame, workers int) error {
	return writeMFPAC(w, f, workers, mfpacBlockRows)
}

func writeMFPAC(w io.Writer, f *Frame, workers, blockRows int) error {
	if blockRows <= 0 {
		blockRows = mfpacBlockRows
	}
	total := f.Len()
	nBlocks := (total + blockRows - 1) / blockRows

	// Dense row map: packed row -> arena row, drive by drive. For
	// slack-free frames this is the identity, but simulator arenas and
	// vendor-filtered views leave gaps the file must not carry.
	src := make([]int32, 0, total)
	for i := range f.drives {
		d := &f.drives[i]
		for row := d.Start; row < d.End; row++ {
			src = append(src, row)
		}
	}

	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeMFPACHeader(bw, f, blockRows, total, nBlocks); err != nil {
		return err
	}

	// Encode blocks in parallel, a bounded window at a time, into
	// per-slot buffers that are reused across windows (the pooled block
	// buffers); the stream itself is written serially in block order so
	// the bytes never depend on scheduling.
	nw := parallel.Workers(workers)
	window := nw * 4
	if window > nBlocks {
		window = nBlocks
	}
	slots := make([][]byte, window)
	blockSizes := make([]uint32, nBlocks)
	var lenCRC [8]byte
	for base := 0; base < nBlocks; base += window {
		n := window
		if base+n > nBlocks {
			n = nBlocks - base
		}
		err := parallel.Do(n, workers, func(i int) error {
			bi := base + i
			lo := bi * blockRows
			hi := lo + blockRows
			if hi > total {
				hi = total
			}
			enc := mfpacEncPool.Get().(*mfpacEncoder)
			slots[i] = encodeMFPACBlock(slots[i][:0], enc, f, src[lo:hi])
			mfpacEncPool.Put(enc)
			return nil
		})
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			payload := slots[i]
			if len(payload) > math.MaxUint32 {
				return fmt.Errorf("dataset: mfpac block %d payload too large", base+i)
			}
			blockSizes[base+i] = uint32(len(payload))
			binary.LittleEndian.PutUint32(lenCRC[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(lenCRC[4:8], crc32.ChecksumIEEE(payload))
			if _, err := bw.Write(lenCRC[:]); err != nil {
				return fmt.Errorf("dataset: write mfpac block: %w", err)
			}
			if _, err := bw.Write(payload); err != nil {
				return fmt.Errorf("dataset: write mfpac block: %w", err)
			}
		}
	}

	footer := encodeMFPACFooter(f, blockSizes)
	if _, err := bw.Write(footer); err != nil {
		return fmt.Errorf("dataset: write mfpac footer: %w", err)
	}
	var trailer [mfpacTrailerLen]byte
	binary.LittleEndian.PutUint32(trailer[0:4], uint32(len(footer)))
	binary.LittleEndian.PutUint32(trailer[4:8], crc32.ChecksumIEEE(footer))
	copy(trailer[8:], mfpacMagic[:])
	if _, err := bw.Write(trailer[:]); err != nil {
		return fmt.Errorf("dataset: write mfpac trailer: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("dataset: write mfpac: %w", err)
	}
	return nil
}

func writeMFPACHeader(w io.Writer, f *Frame, blockRows, total, nBlocks int) error {
	var h [mfpacHeaderLen]byte
	copy(h[0:8], mfpacMagic[:])
	binary.LittleEndian.PutUint16(h[8:10], mfpacVersion)
	var flags uint16
	if f.cumulated {
		flags |= mfpacFlagCumulated
	}
	binary.LittleEndian.PutUint16(h[10:12], flags)
	binary.LittleEndian.PutUint16(h[12:14], uint16(smartWidth))
	binary.LittleEndian.PutUint16(h[14:16], uint16(wWidth))
	binary.LittleEndian.PutUint16(h[16:18], uint16(bWidth))
	binary.LittleEndian.PutUint16(h[18:20], 0) // reserved
	binary.LittleEndian.PutUint32(h[20:24], uint32(blockRows))
	binary.LittleEndian.PutUint64(h[24:32], uint64(total))
	binary.LittleEndian.PutUint32(h[32:36], uint32(len(f.drives)))
	binary.LittleEndian.PutUint32(h[36:40], uint32(nBlocks))
	binary.LittleEndian.PutUint32(h[40:44], crc32.ChecksumIEEE(h[:40]))
	if _, err := w.Write(h[:]); err != nil {
		return fmt.Errorf("dataset: write mfpac header: %w", err)
	}
	return nil
}

// encodeMFPACFooter lays out the drive table, firmware table, string
// table, and block index. Identity strings are interned in a footer
// string table (vendor and model names repeat across the fleet), and
// drive ranges are stored as row counts — starts are the running sum,
// which is also what pins the file to dense packing.
func encodeMFPACFooter(f *Frame, blockSizes []uint32) []byte {
	var strTab []string
	strIdx := make(map[string]uint64)
	intern := func(s string) uint64 {
		if id, ok := strIdx[s]; ok {
			return id
		}
		id := uint64(len(strTab))
		strTab = append(strTab, s)
		strIdx[s] = id
		return id
	}

	// Drive table first so its string refs populate the table in a
	// deterministic first-use order.
	var drives []byte
	for i := range f.drives {
		d := &f.drives[i]
		drives = binary.AppendUvarint(drives, intern(d.SerialNumber))
		drives = binary.AppendUvarint(drives, intern(d.Vendor))
		drives = binary.AppendUvarint(drives, intern(d.Model))
		drives = binary.AppendUvarint(drives, uint64(d.Rows()))
	}
	var fw []byte
	fw = binary.AppendUvarint(fw, uint64(len(f.fwTab)))
	for _, v := range f.fwTab {
		fw = binary.AppendUvarint(fw, intern(string(v)))
	}

	out := append([]byte(nil), drives...)
	out = append(out, fw...)
	out = binary.AppendUvarint(out, uint64(len(strTab)))
	for _, s := range strTab {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	for _, sz := range blockSizes {
		out = binary.AppendUvarint(out, uint64(sz))
	}
	return out
}

// readMFPAC reads the whole container and decodes it. size is the
// container's length when known, else 0; it only sizes the read buffer
// (see readSized).
func readMFPAC(r io.Reader, size, workers int) (*Frame, error) {
	buf, err := readSized(r, size)
	if err != nil {
		return nil, fmt.Errorf("dataset: read mfpac: %w", err)
	}
	return decodeMFPAC(buf, workers)
}

// readerSize returns the size of r when r can report it — a regular
// *os.File, through Stat — and 0 otherwise.
func readerSize(r io.Reader) int {
	if f, ok := r.(*os.File); ok {
		if st, err := f.Stat(); err == nil && st.Mode().IsRegular() && int64(int(st.Size())) == st.Size() {
			return int(st.Size())
		}
	}
	return 0
}

// readSized reads r to EOF with io.ReadAll's loop, but starts with room
// for size bytes, plus one so that reaching EOF needs no regrowth, when
// that exceeds io.ReadAll's 512. A correct size reads into one
// allocation; a wrong one costs only regrowth.
func readSized(r io.Reader, size int) ([]byte, error) {
	buf := make([]byte, 0, max(size+1, 512))
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// mfpacHeader is the parsed fixed header.
type mfpacHeader struct {
	flags     uint16
	blockRows int
	totalRows int
	drives    int
	blocks    int
}

func parseMFPACHeader(buf []byte) (mfpacHeader, error) {
	var h mfpacHeader
	if len(buf) < mfpacHeaderLen {
		return h, fmt.Errorf("dataset: mfpac file truncated: %d bytes", len(buf))
	}
	if !bytes.Equal(buf[0:8], mfpacMagic[:]) {
		return h, fmt.Errorf("dataset: not an mfpac file (bad magic)")
	}
	if got := binary.LittleEndian.Uint32(buf[40:44]); got != crc32.ChecksumIEEE(buf[:40]) {
		return h, fmt.Errorf("dataset: mfpac header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint16(buf[8:10]); v != mfpacVersion {
		return h, fmt.Errorf("dataset: mfpac version %d, want %d", v, mfpacVersion)
	}
	h.flags = binary.LittleEndian.Uint16(buf[10:12])
	if got := int(binary.LittleEndian.Uint16(buf[12:14])); got != smartWidth {
		return h, fmt.Errorf("dataset: mfpac file has %d SMART columns, catalogue has %d", got, smartWidth)
	}
	if got := int(binary.LittleEndian.Uint16(buf[14:16])); got != wWidth {
		return h, fmt.Errorf("dataset: mfpac file has %d W columns, catalogue has %d", got, wWidth)
	}
	if got := int(binary.LittleEndian.Uint16(buf[16:18])); got != bWidth {
		return h, fmt.Errorf("dataset: mfpac file has %d B columns, catalogue has %d", got, bWidth)
	}
	h.blockRows = int(binary.LittleEndian.Uint32(buf[20:24]))
	total := binary.LittleEndian.Uint64(buf[24:32])
	if total > math.MaxInt32 {
		return h, fmt.Errorf("dataset: mfpac row count %d too large", total)
	}
	h.totalRows = int(total)
	h.drives = int(binary.LittleEndian.Uint32(buf[32:36]))
	h.blocks = int(binary.LittleEndian.Uint32(buf[36:40]))
	if h.blockRows <= 0 {
		return h, fmt.Errorf("dataset: mfpac block size %d invalid", h.blockRows)
	}
	wantBlocks := (h.totalRows + h.blockRows - 1) / h.blockRows
	if h.blocks != wantBlocks {
		return h, fmt.Errorf("dataset: mfpac block count %d inconsistent with %d rows of %d",
			h.blocks, h.totalRows, h.blockRows)
	}
	return h, nil
}

// mfpacFooter is the parsed footer: identity strings resolved, block
// payload offsets relative to the start of the block region.
type mfpacFooter struct {
	driveSN     []string
	driveVendor []string
	driveModel  []string
	driveRows   []int
	fwTab       []firmware.Version
	blockOff    []int // payload offset of each block in the block region
	blockLen    []int
}

func parseMFPACFooter(h mfpacHeader, payload []byte, blockRegion int) (*mfpacFooter, error) {
	c := mfpacCursor{b: payload}
	ft := &mfpacFooter{
		driveSN:     make([]string, h.drives),
		driveVendor: make([]string, h.drives),
		driveModel:  make([]string, h.drives),
		driveRows:   make([]int, h.drives),
		blockOff:    make([]int, h.blocks),
		blockLen:    make([]int, h.blocks),
	}
	type ref struct{ sn, vendor, model uint64 }
	refs := make([]ref, h.drives)
	rowSum := 0
	for i := 0; i < h.drives; i++ {
		var r ref
		var rows uint64
		var err error
		if r.sn, err = c.uvarint(); err != nil {
			return nil, fmt.Errorf("dataset: mfpac drive table: %w", err)
		}
		if r.vendor, err = c.uvarint(); err != nil {
			return nil, fmt.Errorf("dataset: mfpac drive table: %w", err)
		}
		if r.model, err = c.uvarint(); err != nil {
			return nil, fmt.Errorf("dataset: mfpac drive table: %w", err)
		}
		if rows, err = c.uvarint(); err != nil {
			return nil, fmt.Errorf("dataset: mfpac drive table: %w", err)
		}
		if rows == 0 || rows > uint64(h.totalRows) {
			return nil, fmt.Errorf("dataset: mfpac drive %d has %d rows", i, rows)
		}
		refs[i] = r
		ft.driveRows[i] = int(rows)
		rowSum += int(rows)
	}
	if rowSum != h.totalRows {
		return nil, fmt.Errorf("dataset: mfpac drive rows sum to %d, header says %d", rowSum, h.totalRows)
	}

	nfw, err := c.uvarint()
	if err != nil {
		return nil, fmt.Errorf("dataset: mfpac firmware table: %w", err)
	}
	if nfw > uint64(len(payload)) {
		return nil, fmt.Errorf("dataset: mfpac firmware table of %d entries implausible", nfw)
	}
	fwRefs := make([]uint64, nfw)
	for i := range fwRefs {
		if fwRefs[i], err = c.uvarint(); err != nil {
			return nil, fmt.Errorf("dataset: mfpac firmware table: %w", err)
		}
	}

	nstr, err := c.uvarint()
	if err != nil {
		return nil, fmt.Errorf("dataset: mfpac string table: %w", err)
	}
	if nstr > uint64(len(payload)) {
		return nil, fmt.Errorf("dataset: mfpac string table of %d entries implausible", nstr)
	}
	strTab := make([]string, nstr)
	for i := range strTab {
		n, err := c.uvarint()
		if err != nil {
			return nil, fmt.Errorf("dataset: mfpac string table: %w", err)
		}
		b, err := c.bytes(int(n))
		if err != nil {
			return nil, fmt.Errorf("dataset: mfpac string table: %w", err)
		}
		strTab[i] = string(b)
	}
	str := func(id uint64) (string, error) {
		if id >= uint64(len(strTab)) {
			return "", fmt.Errorf("dataset: mfpac string ref %d out of table (%d entries)", id, len(strTab))
		}
		return strTab[id], nil
	}
	for i, r := range refs {
		if ft.driveSN[i], err = str(r.sn); err != nil {
			return nil, err
		}
		if ft.driveVendor[i], err = str(r.vendor); err != nil {
			return nil, err
		}
		if ft.driveModel[i], err = str(r.model); err != nil {
			return nil, err
		}
	}
	ft.fwTab = make([]firmware.Version, nfw)
	for i, id := range fwRefs {
		s, err := str(id)
		if err != nil {
			return nil, err
		}
		ft.fwTab[i] = firmware.Version(s)
	}

	off := 0
	for i := 0; i < h.blocks; i++ {
		n, err := c.uvarint()
		if err != nil {
			return nil, fmt.Errorf("dataset: mfpac block index: %w", err)
		}
		// Each stored block is prefixed by its length and CRC.
		ft.blockOff[i] = off + 8
		ft.blockLen[i] = int(n)
		off += 8 + int(n)
		if off > blockRegion {
			return nil, fmt.Errorf("dataset: mfpac block index overruns block region")
		}
	}
	if off != blockRegion {
		return nil, fmt.Errorf("dataset: mfpac block region is %d bytes, index covers %d", blockRegion, off)
	}
	if c.off != len(payload) {
		return nil, fmt.Errorf("dataset: mfpac footer has %d trailing bytes", len(payload)-c.off)
	}
	return ft, nil
}

func decodeMFPAC(buf []byte, workers int) (*Frame, error) {
	h, err := parseMFPACHeader(buf)
	if err != nil {
		return nil, err
	}
	if len(buf) < mfpacHeaderLen+mfpacTrailerLen {
		return nil, fmt.Errorf("dataset: mfpac file truncated: %d bytes", len(buf))
	}
	trailer := buf[len(buf)-mfpacTrailerLen:]
	if !bytes.Equal(trailer[8:], mfpacMagic[:]) {
		return nil, fmt.Errorf("dataset: mfpac file truncated (no closing magic)")
	}
	footerLen := int(binary.LittleEndian.Uint32(trailer[0:4]))
	footerEnd := len(buf) - mfpacTrailerLen
	footerStart := footerEnd - footerLen
	if footerLen < 0 || footerStart < mfpacHeaderLen {
		return nil, fmt.Errorf("dataset: mfpac footer length %d invalid", footerLen)
	}
	footer := buf[footerStart:footerEnd]
	if got := binary.LittleEndian.Uint32(trailer[4:8]); got != crc32.ChecksumIEEE(footer) {
		return nil, fmt.Errorf("dataset: mfpac footer checksum mismatch")
	}
	ft, err := parseMFPACFooter(h, footer, footerStart-mfpacHeaderLen)
	if err != nil {
		return nil, err
	}

	f := NewFrameArena(h.totalRows)
	for _, v := range ft.fwTab {
		if _, dup := f.fwIdx[v]; dup {
			return nil, fmt.Errorf("dataset: mfpac firmware table repeats %q", v)
		}
		f.fwIdx[v] = int32(len(f.fwTab))
		f.fwTab = append(f.fwTab, v)
	}

	blocks := buf[mfpacHeaderLen:footerStart]
	nfw := len(ft.fwTab)
	err = parallel.Do(h.blocks, workers, func(bi int) error {
		off, n := ft.blockOff[bi], ft.blockLen[bi]
		stored := int(binary.LittleEndian.Uint32(blocks[off-8 : off-4]))
		if stored != n {
			return fmt.Errorf("dataset: mfpac block %d length prefix %d disagrees with index %d", bi, stored, n)
		}
		payload := blocks[off : off+n]
		if got := binary.LittleEndian.Uint32(blocks[off-4 : off]); got != crc32.ChecksumIEEE(payload) {
			return fmt.Errorf("dataset: mfpac block %d checksum mismatch", bi)
		}
		lo := bi * h.blockRows
		hi := lo + h.blockRows
		if hi > h.totalRows {
			hi = h.totalRows
		}
		if err := decodeMFPACBlock(payload, f, lo, hi-lo, nfw); err != nil {
			return fmt.Errorf("dataset: mfpac block %d: %w", bi, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	row := 0
	for i := 0; i < h.drives; i++ {
		if err := f.AddDrive(ft.driveSN[i], ft.driveVendor[i], ft.driveModel[i], row, row+ft.driveRows[i]); err != nil {
			return nil, err
		}
		row += ft.driveRows[i]
	}
	f.cumulated = h.flags&mfpacFlagCumulated != 0
	return f, nil
}

// mfpacEncPool recycles the per-block encode scratch (column gather
// and candidate buffers) across blocks and writer calls.
var mfpacEncPool = sync.Pool{New: func() any { return new(mfpacEncoder) }}
