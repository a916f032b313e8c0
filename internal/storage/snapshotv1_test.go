package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"

	"hpcadvisor/internal/dataset"
	"hpcadvisor/internal/fsatomic"
)

// writeSnapshotSegmentV1 stages and atomically publishes a v1 (frame
// format) snapshot segment holding points (append order) rendered in the
// given sorted order. Compact writes v2; this writer exists for the
// forward-compat tests and the v1-vs-v2 cold-open benchmark, and documents
// what old state dirs hold, which the v1 read path must still open.
func writeSnapshotSegmentV1(path string, foldThrough uint64, points []dataset.Point, order []int) error {
	var buf bytes.Buffer
	var hdr [snapHeaderSize]byte
	copy(hdr[:8], snapMagic)
	binary.LittleEndian.PutUint64(hdr[8:], foldThrough)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(points)))
	buf.Write(hdr[:])
	for _, idx := range order {
		enc, err := json.Marshal(points[idx])
		if err != nil {
			return err
		}
		payload := make([]byte, 4+len(enc))
		binary.LittleEndian.PutUint32(payload[:4], uint32(idx))
		copy(payload[4:], enc)
		if _, err := appendFrame(&buf, payload); err != nil {
			return err
		}
	}
	return fsatomic.WriteFile(path, buf.Bytes(), 0o644)
}
