package storage

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"hpcadvisor/internal/dataset"
)

// On-disk layout of a segment store directory:
//
//	wal-<seq>.seg       log segments; the highest seq is the active
//	                    write-ahead segment, all lower seqs are sealed
//	                    (immutable). seq is 16 hex digits, ascending.
//	snapshot-<seq>.seg  at most one compacted snapshot segment, holding
//	                    every point of log segments <= seq in canonical
//	                    sorted order. Written atomically (tmp + rename).
//
// Log segment file:
//
//	header  8B magic "HPALOG1\n" | u64le segment seq
//	frames  u32le payload len | u32le CRC-32C(payload) | payload
//	        payload = one dataset.Point as JSON
//
// Snapshot segment file, format v1 (still read; no longer written):
//
//	header  8B magic "HPASNAP1" | u64le folded-through seq | u64le count
//	frames  same framing; payload = u32le append index | point JSON,
//	        frames ordered by dataset.PointLess (stable by append index)
//
// Snapshot segment file, format v2 ("HPASNAP2", what Compact writes): the
// columnar section layout documented in snapshotv2.go. Readers that can
// mmap serve dataset snapshots directly over the mapped sections; portable
// readers decode the row sections into exactly what a v1 parse yields.
//
// Durability: frames are buffered and fsynced every SyncEvery appends and
// on Sync/Close — a point is acknowledged when the covering fsync returns.
// Recovery: a crash can tear only the tail of the active segment; open
// truncates the torn tail at the last whole frame and replays the rest.
// Sealed segments and snapshots are immutable and verified by CRC on read.
const (
	logMagic        = "HPALOG1\n"
	snapMagic       = "HPASNAP1"
	logHeaderSize   = 16
	snapHeaderSize  = 24
	frameHeaderSize = 8
	// maxFramePayload bounds a single frame; a length prefix beyond it is
	// treated as a torn/corrupt frame, not an allocation request.
	maxFramePayload = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SegmentOptions tune a segment store.
type SegmentOptions struct {
	// SyncEvery batches fsyncs: the write-ahead segment is synced after
	// this many appends (and on Sync/Close). Default 32.
	SyncEvery int
	// MaxSegmentBytes seals the active segment once it grows past this
	// size and starts a new one. Default 8 MiB.
	MaxSegmentBytes int64
	// NoMmap forces Load onto the portable heap parse even where mmap is
	// available — the ablation knob for benchmarks and the byte-identity
	// tests (mmap-served vs heap-served must be indistinguishable).
	NoMmap bool
}

func (o *SegmentOptions) withDefaults() SegmentOptions {
	out := SegmentOptions{SyncEvery: 32, MaxSegmentBytes: 8 << 20}
	if o != nil {
		if o.SyncEvery > 0 {
			out.SyncEvery = o.SyncEvery
		}
		if o.MaxSegmentBytes > 0 {
			out.MaxSegmentBytes = o.MaxSegmentBytes
		}
		out.NoMmap = o.NoMmap
	}
	return out
}

// SegmentStore is the binary segment-log backend.
type SegmentStore struct {
	mu   sync.Mutex
	dir  string
	opts SegmentOptions

	// Active write-ahead segment; nil until the first append after open,
	// seal, or compaction (the directory itself is created lazily too).
	f           *os.File
	w           *bufio.Writer
	activeBytes int64
	nextSeq     uint64 // seq the next created segment gets
	pending     int    // appends since the last fsync

	// durableBytes is how much of the active segment is covered by an
	// fsync — the replication frontier. Only durable bytes are ever shipped
	// to followers: a follower can then never hold bytes a crashed-and-
	// restarted leader lost, because recovery keeps at least every fsynced
	// frame. It is always frame-aligned (appends write whole frames and
	// fsyncs cover them wholly).
	durableBytes int64

	walSeqs     []uint64 // live log segments, ascending; last may be active
	snapSeq     uint64   // snapshot's folded-through seq (0 = none)
	snapCount   int      // points covered by the snapshot
	snapVersion int      // snapshot format: 1 (frames) or 2 (columnar); 0 = none
	count       int      // total points (snapshot + all log segments)

	// mmapServed records whether the most recent Load served the snapshot
	// straight from a mapping (vs the portable heap parse).
	mmapServed bool

	// changed is closed and replaced whenever replication-visible state
	// advances (durability, seal, new segment, compaction); version counts
	// those changes so long-polling followers can detect ones they missed.
	changed chan struct{}
	version uint64

	recovered      bool
	recoveredBytes int64
	closed         bool
}

func walName(seq uint64) string  { return fmt.Sprintf("wal-%016x.seg", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snapshot-%016x.seg", seq) }

func parseSeq(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".seg"), "%x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// OpenSegments opens (or lazily creates) the segment store at dir,
// recovering from a torn tail if the last run crashed mid-append.
func OpenSegments(dir string, opts *SegmentOptions) (*SegmentStore, error) {
	s := &SegmentStore{dir: dir, opts: opts.withDefaults(), nextSeq: 1, changed: make(chan struct{})}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return s, nil // empty store; directory created on first append
		}
		return nil, err
	}

	var snaps []uint64
	owned := 0
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp") || strings.Contains(name, ".tmp-"):
			// Staging file from a crashed compaction: never renamed into
			// place, so it holds nothing acknowledged.
			os.Remove(filepath.Join(dir, name))
			owned++
		case strings.HasPrefix(name, "wal-"):
			if seq, ok := parseSeq(name, "wal-"); ok {
				s.walSeqs = append(s.walSeqs, seq)
				owned++
			}
		case strings.HasPrefix(name, "snapshot-"):
			if seq, ok := parseSeq(name, "snapshot-"); ok {
				snaps = append(snaps, seq)
				owned++
			}
		}
	}
	// A non-empty directory holding no segment files is some other data
	// (a state dir, a home dir...): opening it as an "empty store" would
	// hide the misconfiguration and scatter segments into it.
	if owned == 0 && len(entries) > 0 {
		return nil, fmt.Errorf("storage: %s is not a segment store (no wal-*.seg or snapshot-*.seg files among its %d entries)", dir, len(entries))
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(s.walSeqs, func(i, j int) bool { return s.walSeqs[i] < s.walSeqs[j] })

	// Keep the newest snapshot; older ones (crash between rename and
	// cleanup) are superseded.
	if len(snaps) > 0 {
		s.snapSeq = snaps[len(snaps)-1]
		for _, old := range snaps[:len(snaps)-1] {
			os.Remove(filepath.Join(dir, snapName(old)))
		}
		version, folded, count, err := readSnapshotHeader(filepath.Join(dir, snapName(s.snapSeq)))
		if err != nil {
			return nil, err
		}
		if folded != s.snapSeq {
			return nil, fmt.Errorf("storage: snapshot %s header claims seq %d", snapName(s.snapSeq), folded)
		}
		s.snapVersion = version
		s.snapCount = count
		s.count = count
	}

	// Drop log segments the snapshot already folded (crash between the
	// snapshot rename and segment deletion), then count the live ones.
	live := s.walSeqs[:0]
	for _, seq := range s.walSeqs {
		if seq <= s.snapSeq {
			os.Remove(filepath.Join(dir, walName(seq)))
			continue
		}
		live = append(live, seq)
	}
	s.walSeqs = live
	s.nextSeq = s.snapSeq + 1
	if n := len(s.walSeqs); n > 0 {
		s.nextSeq = s.walSeqs[n-1] + 1
	}

	for i, seq := range s.walSeqs {
		path := filepath.Join(dir, walName(seq))
		if i < len(s.walSeqs)-1 {
			// Sealed segment: must be whole.
			n, err := readLogSegment(path, seq, nil)
			if err != nil {
				return nil, err
			}
			s.count += n
			continue
		}
		// Last segment: the crash frontier. Truncate any torn tail.
		n, kept, cut, err := recoverLogTail(path, seq)
		if err != nil {
			return nil, err
		}
		s.count += n
		if cut > 0 {
			s.recovered = true
			s.recoveredBytes += cut
		}
		if kept == 0 && n == 0 {
			// Nothing valid survived (torn header): remove and recreate
			// the seq on next append.
			os.Remove(path)
			s.walSeqs = s.walSeqs[:len(s.walSeqs)-1]
			s.nextSeq = seq
			continue
		}
		if kept < s.opts.MaxSegmentBytes {
			// Reopen for appending; otherwise leave it sealed and start a
			// fresh segment on the next append. Every surviving frame is
			// treated as acknowledged (the recovery contract), so the whole
			// kept prefix is replicable.
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			s.f = f
			s.w = bufio.NewWriter(f)
			s.activeBytes = kept
			s.durableBytes = kept
			s.nextSeq = seq + 1
		}
	}
	return s, nil
}

// Format names the backend's layout.
func (s *SegmentStore) Format() Format { return FormatSegment }

// ensureActive opens the active segment, creating the directory and the
// next segment file on first use.
func (s *SegmentStore) ensureActive() error {
	if s.f != nil {
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(s.dir, walName(s.nextSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [logHeaderSize]byte
	copy(hdr[:8], logMagic)
	binary.LittleEndian.PutUint64(hdr[8:], s.nextSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	s.f = f
	s.w = bufio.NewWriter(f)
	s.activeBytes = logHeaderSize
	// Nothing in the new segment (header included) is durable until the
	// first fsync; replication serves none of it yet.
	s.durableBytes = 0
	s.walSeqs = append(s.walSeqs, s.nextSeq)
	s.nextSeq++
	s.notifyChange()
	return nil
}

// notifyChange wakes replication watchers: the manifest or the durable
// frontier moved. Callers hold s.mu.
func (s *SegmentStore) notifyChange() {
	s.version++
	close(s.changed)
	s.changed = make(chan struct{})
}

// Watch returns a channel closed at the next replication-visible change
// (durability advance, seal, new segment, compaction). Callers re-check
// state after the channel closes; a fresh channel must be obtained per
// wait.
func (s *SegmentStore) Watch() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.changed
}

// appendFrame writes one frame — the single encoding shared by log and
// snapshot segments.
func appendFrame(w io.Writer, payload []byte) (int64, error) {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return int64(frameHeaderSize + len(payload)), nil
}

// Append records one point at the tail of the write-ahead segment. Fsyncs
// are batched (SegmentOptions.SyncEvery): the point is durable — and only
// then acknowledged — once the covering Sync returns.
func (s *SegmentStore) Append(p dataset.Point) error {
	payload, err := json.Marshal(p)
	if err != nil {
		return err
	}
	if len(payload) > maxFramePayload {
		// The read path rejects frames beyond this bound; never acknowledge
		// a point that a reopen would then refuse (or truncate).
		return fmt.Errorf("storage: point %s encodes to %d bytes, over the %d frame limit",
			p.ScenarioID, len(payload), maxFramePayload)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: segment store %s is closed", s.dir)
	}
	if err := s.ensureActive(); err != nil {
		return err
	}
	n, err := appendFrame(s.w, payload)
	if err != nil {
		return err
	}
	s.activeBytes += n
	s.count++
	s.pending++
	if s.pending >= s.opts.SyncEvery {
		if err := s.flushSync(); err != nil {
			return err
		}
	}
	if s.activeBytes >= s.opts.MaxSegmentBytes {
		return s.seal()
	}
	return nil
}

// flushSync drains the write buffer and fsyncs the active segment. Callers
// hold s.mu.
func (s *SegmentStore) flushSync() error {
	if s.f == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.pending = 0
	if s.activeBytes > s.durableBytes {
		s.durableBytes = s.activeBytes
		s.notifyChange()
	}
	return nil
}

// seal makes the active segment immutable; the next append starts a new
// one. Callers hold s.mu.
func (s *SegmentStore) seal() error {
	if s.f == nil {
		return nil
	}
	if err := s.flushSync(); err != nil {
		return err
	}
	err := s.f.Close()
	s.f, s.w, s.activeBytes, s.durableBytes = nil, nil, 0, 0
	s.notifyChange()
	return err
}

// Sync makes every appended point durable.
func (s *SegmentStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushSync()
}

// Close seals the active segment and releases the store.
func (s *SegmentStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.seal()
}

// Load reads the dataset in append order: the snapshot segment's points
// (scattered back to their append positions), then each live log segment.
//
// The fallback ladder, fastest first:
//
//  1. v2 snapshot on an mmap-capable build: the snapshot maps read-only
//     and dataset queries serve straight over the mapped columns (rows
//     decode lazily). Any mmap, CRC, or validation failure drops to 2.
//  2. Heap parse: v2 row sections or v1 frames decode into points, and the
//     snapshot's canonical order seeds the store so its first
//     dataset.Snapshot build skips the re-sort.
//
// Either way the WAL tail replays on top, so the two paths return stores
// with identical contents and generations.
func (s *SegmentStore) Load() (*dataset.Store, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		if err := s.w.Flush(); err != nil {
			return nil, err
		}
	}
	s.mmapServed = false
	if s.snapSeq > 0 && s.snapVersion == 2 && mmapSupported && !s.opts.NoMmap {
		if st, err := s.loadMappedLocked(); err == nil {
			s.mmapServed = true
			return st, nil
		}
		// Fall through: the heap parse re-reads from scratch and surfaces
		// its own (more precise) error if the file is truly unreadable.
	}
	points, sorted, err := s.readAll()
	if err != nil {
		return nil, err
	}
	return dataset.NewSeededStore(points, sorted), nil
}

// loadMappedLocked maps the v2 snapshot and replays the WAL tail on top.
// Callers hold s.mu with the write buffer drained.
func (s *SegmentStore) loadMappedLocked() (*dataset.Store, error) {
	st, err := loadMappedSnapshot(filepath.Join(s.dir, snapName(s.snapSeq)), s.snapSeq)
	if err != nil {
		return nil, err
	}
	var tail []dataset.Point
	for _, seq := range s.walSeqs {
		_, err := readLogSegment(filepath.Join(s.dir, walName(seq)), seq, func(payload []byte) error {
			var p dataset.Point
			if err := json.Unmarshal(payload, &p); err != nil {
				return fmt.Errorf("storage: %s: decoding point: %w", walName(seq), err)
			}
			tail = append(tail, p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	st.AddAll(tail)
	return st, nil
}

// readAll decodes the whole store: points in append order plus the
// snapshot's sorted prefix. Callers hold s.mu with the write buffer
// drained.
func (s *SegmentStore) readAll() (points, sorted []dataset.Point, err error) {
	if s.snapSeq > 0 {
		points, sorted, err = readSnapshotSegment(filepath.Join(s.dir, snapName(s.snapSeq)), s.snapSeq)
		if err != nil {
			return nil, nil, err
		}
	}
	for _, seq := range s.walSeqs {
		_, err := readLogSegment(filepath.Join(s.dir, walName(seq)), seq, func(payload []byte) error {
			var p dataset.Point
			if err := json.Unmarshal(payload, &p); err != nil {
				return fmt.Errorf("storage: %s: decoding point: %w", walName(seq), err)
			}
			points = append(points, p)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return points, sorted, nil
}

// Compact folds the snapshot and every log segment into a new sorted
// snapshot segment, written atomically, then deletes the folded files. The
// log is empty afterwards; the next append opens a fresh write-ahead
// segment. Compaction only changes the on-disk layout — already-loaded
// stores and their snapshots are untouched.
func (s *SegmentStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: segment store %s is closed", s.dir)
	}
	if len(s.walSeqs) == 0 {
		return nil // nothing beyond the snapshot
	}
	if err := s.seal(); err != nil {
		return err
	}
	points, _, err := s.readAll()
	if err != nil {
		return err
	}
	foldThrough := s.walSeqs[len(s.walSeqs)-1]
	if len(points) == s.snapCount {
		// Only empty log segments: delete them, keep the snapshot as is.
		for _, seq := range s.walSeqs {
			os.Remove(filepath.Join(s.dir, walName(seq)))
		}
		s.walSeqs = nil
		s.nextSeq = foldThrough + 1
		s.notifyChange()
		return nil
	}

	// Canonical sort order over append indexes, stable so ties keep append
	// order — exactly the order dataset.Snapshot would build. A store
	// seeded from this segment reuses the order verbatim: its first
	// snapshot skips the re-sort and goes straight to building the
	// inverted indexes, columns, and hot fronts over the on-disk layout.
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return dataset.PointLess(&points[order[a]], &points[order[b]])
	})

	if err := writeSnapshotSegmentV2(filepath.Join(s.dir, snapName(foldThrough)), foldThrough, points, order); err != nil {
		return err
	}

	// The new snapshot is durable; retire what it folded. A v1 snapshot
	// folded here compacts forward: old state dirs upgrade to v2 on their
	// first compaction.
	if s.snapSeq > 0 && s.snapSeq != foldThrough {
		os.Remove(filepath.Join(s.dir, snapName(s.snapSeq)))
	}
	for _, seq := range s.walSeqs {
		os.Remove(filepath.Join(s.dir, walName(seq)))
	}
	s.snapSeq = foldThrough
	s.snapVersion = 2
	s.snapCount = len(points)
	s.walSeqs = nil
	s.nextSeq = foldThrough + 1
	s.notifyChange()
	return nil
}

// Info describes the on-disk state.
func (s *SegmentStore) Info() (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := Info{
		Format:         FormatSegment,
		Path:           s.dir,
		Points:         s.count,
		Segments:       len(s.walSeqs),
		SnapshotPoints: s.snapCount,
		SnapshotFormat: s.snapVersion,
		MmapServed:     s.mmapServed,
		Recovered:      s.recovered,
		RecoveredBytes: s.recoveredBytes,
	}
	if s.snapVersion == 2 {
		if fp, err := readSnapshotFootprintV2(filepath.Join(s.dir, snapName(s.snapSeq))); err == nil {
			info.SymbolTableBytes = fp.symtabBytes
			info.ColumnBytes = fp.columnBytes
			info.FailedBitmapBytes = fp.failedBytes
			info.RowDataBytes = fp.rowDataBytes
			info.HotFronts = fp.hotFronts
		}
	}
	if s.f != nil {
		if err := s.w.Flush(); err != nil {
			return info, err
		}
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return info, nil
		}
		return info, err
	}
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			info.Bytes += fi.Size()
		}
	}
	return info, nil
}

//
// Segment file IO
//

// readLogHeader validates a log segment header against its file name.
func readLogHeader(r io.Reader, path string, seq uint64) error {
	var hdr [logHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("storage: %s: short header: %w", path, err)
	}
	if string(hdr[:8]) != logMagic {
		return fmt.Errorf("storage: %s: bad magic %q", path, hdr[:8])
	}
	if got := binary.LittleEndian.Uint64(hdr[8:]); got != seq {
		return fmt.Errorf("storage: %s: header seq %d does not match name", path, got)
	}
	return nil
}

// readFrame reads one frame. io.EOF means a clean end; errTornFrame wraps
// any torn or corrupt tail condition with the byte offset of the frame.
type tornError struct {
	off int64
	why string
}

func (e *tornError) Error() string { return fmt.Sprintf("torn frame at byte %d: %s", e.off, e.why) }

func readFrame(r *bufio.Reader, off int64) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err == io.EOF {
		return nil, io.EOF
	} else if err != nil {
		return nil, &tornError{off, "short frame header"}
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, &tornError{off, "short frame header"}
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFramePayload {
		return nil, &tornError{off, fmt.Sprintf("implausible frame length %d", n)}
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, &tornError{off, "short frame payload"}
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, &tornError{off, "payload CRC mismatch"}
	}
	return payload, nil
}

// readLogSegment strictly reads a sealed log segment, invoking fn per
// frame payload (fn may be nil to only count). Any torn or corrupt frame
// is an error: sealed segments are immutable and were fsynced whole.
func readLogSegment(path string, seq uint64, fn func(payload []byte) error) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	if err := readLogHeader(br, path, seq); err != nil {
		return 0, err
	}
	frames := 0
	off := int64(logHeaderSize)
	for {
		payload, err := readFrame(br, off)
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			return frames, fmt.Errorf("storage: %s: %w", path, err)
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return frames, err
			}
		}
		frames++
		off += frameHeaderSize + int64(len(payload))
	}
}

// recoverLogTail scans the active (last) log segment and truncates a torn
// tail at the last whole frame: the crash contract is that only
// unacknowledged trailing writes can be lost. It returns the surviving
// frame count, the surviving byte length (0 if the header itself was torn
// and the file holds nothing), and how many bytes were cut.
func recoverLogTail(path string, seq uint64) (frames int, kept, cut int64, err error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, 0, err
	}
	size := fi.Size()
	if size < logHeaderSize {
		// Torn during creation: no frame was ever acknowledged.
		return 0, 0, size, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	br := bufio.NewReaderSize(f, 1<<20)
	if err := readLogHeader(br, path, seq); err != nil {
		// The active segment's header write was never acknowledged either:
		// a crash between file creation and the first fsync can persist the
		// size without the data (garbage or zeros). Nothing in this file
		// was ever durable, so it is torn, not fatal — unlike the same
		// damage on a sealed segment.
		f.Close()
		return 0, 0, size, nil
	}
	good := int64(logHeaderSize)
	for {
		payload, rerr := readFrame(br, good)
		if rerr == io.EOF {
			f.Close()
			return frames, good, 0, nil
		}
		var torn *tornError
		if errors.As(rerr, &torn) {
			f.Close()
			if terr := os.Truncate(path, good); terr != nil {
				return frames, good, 0, terr
			}
			return frames, good, size - good, nil
		}
		if rerr != nil {
			f.Close()
			return frames, good, 0, rerr
		}
		frames++
		good += frameHeaderSize + int64(len(payload))
	}
}

// readSnapshotHeader reads and validates a snapshot segment's header,
// sniffing the format version from the magic ("HPASNAP1" frames vs
// "HPASNAP2" columnar sections).
func readSnapshotHeader(path string) (version int, foldThrough uint64, count int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	var hdr [v2HeaderSize]byte
	n, rerr := io.ReadFull(f, hdr[:])
	if n < snapHeaderSize {
		return 0, 0, 0, fmt.Errorf("storage: %s: short header: %w", path, rerr)
	}
	switch string(hdr[:8]) {
	case snapMagic:
		cnt := binary.LittleEndian.Uint64(hdr[16:])
		if cnt > 1<<31 {
			return 0, 0, 0, fmt.Errorf("storage: %s: implausible point count %d", path, cnt)
		}
		return 1, binary.LittleEndian.Uint64(hdr[8:]), int(cnt), nil
	case snapMagicV2:
		if n < v2HeaderSize {
			return 0, 0, 0, fmt.Errorf("storage: %s: short v2 header: %w", path, rerr)
		}
		cnt := binary.LittleEndian.Uint64(hdr[16:])
		if cnt > 1<<31 {
			return 0, 0, 0, fmt.Errorf("storage: %s: implausible point count %d", path, cnt)
		}
		if marker := binary.LittleEndian.Uint32(hdr[24:]); marker != v2EndianMarker {
			return 0, 0, 0, fmt.Errorf("storage: %s: bad endian marker %#x", path, marker)
		}
		if nsec := binary.LittleEndian.Uint32(hdr[28:]); nsec == 0 || nsec > v2MaxSections {
			return 0, 0, 0, fmt.Errorf("storage: %s: implausible section count %d", path, nsec)
		}
		return 2, binary.LittleEndian.Uint64(hdr[8:]), int(cnt), nil
	default:
		return 0, 0, 0, fmt.Errorf("storage: %s: bad magic %q", path, hdr[:8])
	}
}

// readSnapshotSegment reads a snapshot segment of either format: points
// come back in append order (scattered via the per-row append index) and
// in the snapshot's canonical sorted order. The index set must be exactly
// 0..count-1.
func readSnapshotSegment(path string, seq uint64) (points, sorted []dataset.Point, err error) {
	version, foldThrough, count, err := readSnapshotHeader(path)
	if err != nil {
		return nil, nil, err
	}
	if version == 2 {
		return readSnapshotSegmentV2(path, seq)
	}
	if foldThrough != seq {
		return nil, nil, fmt.Errorf("storage: %s: header seq %d does not match name", path, foldThrough)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	if _, err := br.Discard(snapHeaderSize); err != nil {
		return nil, nil, err
	}
	points = make([]dataset.Point, count)
	sorted = make([]dataset.Point, 0, count)
	seen := make([]bool, count)
	off := int64(snapHeaderSize)
	for i := 0; i < count; i++ {
		payload, err := readFrame(br, off)
		if err != nil {
			return nil, nil, fmt.Errorf("storage: %s: frame %d: %w", path, i, err)
		}
		if len(payload) < 4 {
			return nil, nil, fmt.Errorf("storage: %s: frame %d: payload too short", path, i)
		}
		idx := binary.LittleEndian.Uint32(payload[:4])
		if int(idx) >= count || seen[idx] {
			return nil, nil, fmt.Errorf("storage: %s: frame %d: bad append index %d", path, i, idx)
		}
		seen[idx] = true
		var p dataset.Point
		if err := json.Unmarshal(payload[4:], &p); err != nil {
			return nil, nil, fmt.Errorf("storage: %s: frame %d: decoding point: %w", path, i, err)
		}
		points[idx] = p
		sorted = append(sorted, p)
		off += frameHeaderSize + int64(len(payload))
	}
	if payload, err := readFrame(br, off); err != io.EOF || payload != nil {
		return nil, nil, fmt.Errorf("storage: %s: trailing data after %d frames", path, count)
	}
	return points, sorted, nil
}
