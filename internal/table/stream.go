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
	cols := codec.NewColumns()
	sc := t.Scanner(0, 1, 1)
	for sc.Scan() {
		cols.Append(sc.Row())
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("table: encode stream scan: %w", err)
	}
	pw := NewWriter(nil)
	if err := cols.EncodeTo(pw); err != nil {
		return nil, fmt.Errorf("table: encode stream: %w", err)
	}
	if err := pw.Err(); err != nil {
		return nil, fmt.Errorf("table: encode stream: %w", err)
	}
	payload := pw.Bytes()
	sum := sha256.Sum256(payload)

	w := NewWriter(make([]byte, 0, len(streamMagic)+2*binary.MaxVarintLen64+len(sum)+len(payload)))
	w.Raw([]byte(streamMagic))
	w.Uvarint(uint64(cols.Len()))
	w.Uvarint(uint64(len(payload)))
	w.Raw(sum[:])
	w.Raw(payload)
	return w.Bytes(), nil
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
	cols := codec.NewColumns()
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
