package table

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Stream transfer: one checksummed column envelope, so a table can
// cross a process boundary without trusting the transport. This is the
// framing of the stage cache's table payloads, which are also what a
// peer answers a stage steal with: the reader checksum-verifies it, and
// a corrupted or truncated body surfaces as *IntegrityError — never as
// silently wrong rows.
//
//	magic   "rcpt-col/1\n"
//	rows    uvarint — row count, cross-checked after decode
//	paylen  uvarint — payload byte length
//	sha256  32 bytes — checksum of the payload
//	payload Columns.EncodeTo bytes

const streamMagic = "rcpt-col/1\n"

// IntegrityError marks a stream whose envelope failed verification
// (bad magic, truncation, checksum or row-count mismatch). Callers use
// it to distinguish "peer sent damaged bytes — recompute locally" from
// plain transport errors.
type IntegrityError struct {
	Reason string
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("table: stream integrity: %s", e.Reason)
}

// EncodeStream returns every row of t as one checksummed column
// envelope. The payload is one Columns over every row regardless of how
// t stores its rows — encoding is a pure function of the row sequence,
// so two tables with identical rows encode identically whatever their
// storage or composition.
func EncodeStream[T any](codec Codec[T], t Table[T]) ([]byte, error) {
	w := NewWriter(nil)
	if err := AppendBlock(w, codec, t); err != nil {
		return nil, err
	}
	block := w.Bytes()
	_, n := binary.Uvarint(block)
	return block[n:], nil
}

// blockHeaderMax bounds what AppendBlock writes ahead of the column
// bytes: the block length, the magic, the row count, the payload length
// and the checksum.
const blockHeaderMax = 3*binary.MaxVarintLen64 + len(streamMagic) + sha256.Size

// AppendBlock appends t's stream envelope to w as a length-prefixed
// block: the envelope's byte length as a uvarint, then the bytes
// EncodeStream returns, so a payload can carry tables among its other
// fields. The block is framed in w's one buffer: the column bytes are
// encoded once, after room for the longest header, then moved down to
// the end of the header they get.
func AppendBlock[T any](w *Writer, codec Codec[T], t Table[T]) error {
	cols, err := streamColumns(codec, t)
	if err != nil {
		return err
	}
	start := len(w.buf)
	w.buf = append(w.buf, make([]byte, blockHeaderMax)...)
	if err := cols.EncodeTo(w); err != nil {
		return fmt.Errorf("table: encode stream: %w", err)
	}
	if err := w.Err(); err != nil {
		return fmt.Errorf("table: encode stream: %w", err)
	}
	payload := w.buf[start+blockHeaderMax:]
	sum := sha256.Sum256(payload)
	var env [blockHeaderMax]byte
	hdr := append(env[:0], streamMagic...)
	hdr = binary.AppendUvarint(hdr, uint64(cols.Len()))
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	hdr = append(hdr, sum[:]...)
	var pre [binary.MaxVarintLen64]byte
	np := binary.PutUvarint(pre[:], uint64(len(hdr)+len(payload)))
	at := start + np + len(hdr)
	n := copy(w.buf[at:], payload)
	copy(w.buf[start:], pre[:np])
	copy(w.buf[start+np:], hdr)
	w.buf = w.buf[:at+n]
	return nil
}

// streamColumns returns the one Columns t's envelope encodes. Columns
// that Build or FromSlice appended from empty in row order are what a
// re-append would build, so they are framed as they are. Every other
// table's rows are appended afresh: decoded columns are not canonical
// by construction, since a stream from a peer or a disk may order its
// dictionaries otherwise or carry unused entries.
func streamColumns[T any](codec Codec[T], t Table[T]) (Columns[T], error) {
	if r, ok := t.(*Resident[T]); ok && r.built {
		return r.cols, nil
	}
	cols := codec.NewColumns(t.Len(Exact))
	sc := t.Scanner()
	for sc.Scan() {
		cols.Append(sc.Row())
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("table: encode stream scan: %w", err)
	}
	return cols, nil
}

// DecodeStream verifies data as exactly one EncodeStream envelope and
// returns its rows as a resident table. It checks, in order, the magic,
// the header, the payload length's 2 GiB cap, that length against the
// bytes left, and the checksum, over the payload in place; then it
// decodes the columns and cross-checks their row count against the
// header's. The table owns its memory; nothing in it aliases data.
// Integrity failures return *IntegrityError.
func DecodeStream[T any](data []byte, codec Codec[T]) (Table[T], error) {
	rows, payload, err := openStream(data)
	if err != nil {
		return nil, err
	}
	cols, err := decodeColumns(payload, rows, codec)
	if err != nil {
		return nil, err
	}
	return FromColumns(cols), nil
}

// openStream runs DecodeStream's envelope checks and returns the
// header's row count and the verified column payload, in place.
func openStream(data []byte) (rows uint64, payload []byte, err error) {
	if len(data) < len(streamMagic) {
		return 0, nil, &IntegrityError{Reason: "short magic"}
	}
	if string(data[:len(streamMagic)]) != streamMagic {
		return 0, nil, &IntegrityError{Reason: "bad magic"}
	}
	hr := NewReader(data[len(streamMagic):])
	rows = hr.Uvarint()
	paylen := hr.Uvarint()
	if err := hr.Err(); err != nil {
		return 0, nil, &IntegrityError{Reason: "truncated header"}
	}
	if paylen > 1<<31 {
		return 0, nil, &IntegrityError{Reason: "payload length out of range"}
	}
	sum := hr.Raw(sha256.Size)
	if hr.Err() != nil {
		return 0, nil, &IntegrityError{Reason: "short checksum"}
	}
	if paylen != uint64(hr.Len()) {
		return 0, nil, &IntegrityError{Reason: fmt.Sprintf("payload length %d, %d bytes left", paylen, hr.Len())}
	}
	payload = hr.Raw(int(paylen))
	if got := sha256.Sum256(payload); !bytes.Equal(got[:], sum) {
		return 0, nil, &IntegrityError{Reason: "checksum mismatch"}
	}
	return rows, payload, nil
}

// decodeColumns decodes a verified column payload and cross-checks its
// row count against the header's.
func decodeColumns[T any](payload []byte, rows uint64, codec Codec[T]) (Columns[T], error) {
	cols := codec.NewColumns(0)
	pr := NewReader(payload)
	if err := cols.DecodeFrom(pr); err != nil {
		return nil, &IntegrityError{Reason: fmt.Sprintf("decode: %v", err)}
	}
	if err := pr.Err(); err != nil {
		return nil, &IntegrityError{Reason: fmt.Sprintf("decode: %v", err)}
	}
	if uint64(cols.Len()) != rows {
		return nil, &IntegrityError{Reason: fmt.Sprintf("row count %d, header says %d", cols.Len(), rows)}
	}
	return cols, nil
}
