package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"dispersion/server"
)

// wal is the coordinator's write-ahead log: a JSONL file of R records,
// one per line. Run logs each merged result (a sink.Record) before it
// reaches the caller; RunSummary logs each completed shard's summary (a
// summaryRecord). A killed coordinator resumes from the last durable
// record without recomputing it. A nil *wal is a disabled log: Append
// and Close do nothing.
type wal[R any] struct {
	f         *os.File
	encode    func(dst []byte, rec R) ([]byte, error) // appends rec's JSON
	line      []byte                                  // reused encoding buffer
	syncEvery int                                     // appended records between fsyncs
	unsynced  int
}

// openWAL opens (creating if absent) the log at path and hands every
// durable record to check, in log order; an error from check rejects the
// log. The log must belong to exactly the logical job req describes: its
// identity is pinned by a "<path>.meta" sidecar holding the request
// JSON, so resuming with a different seed, spec, process, options, or
// trial range is rejected instead of silently mixing stale records. A
// partial or corrupt final line — the footprint of a crash mid-append —
// is truncated away, not an error. Appends then continue after the last
// intact record, each written by encode, and are fsynced every
// syncEvery records.
func openWAL[R any](path string, req server.JobRequest, syncEvery int, encode func([]byte, R) ([]byte, error), check func(R) error) (*wal[R], error) {
	if err := pinRequest(path, req); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	// Drop any torn tail and position appends at the end of the durable
	// prefix.
	good, err := replay(f, check)
	if err == nil {
		err = f.Truncate(good)
	}
	if err == nil {
		_, err = f.Seek(good, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return &wal[R]{f: f, encode: encode, syncEvery: syncEvery}, nil
}

// replay decodes the log's records into check and returns the byte
// offset just past the last intact one. It holds one line at a time, plus
// the 1 MiB reader buffer, so its memory is bounded by the log's longest
// line, not by the log's length. FuzzWALReplay checks it over arbitrary
// log bytes.
func replay[R any](f *os.File, check func(R) error) (int64, error) {
	br := bufio.NewReaderSize(f, 1<<20)
	var good int64
	for n := 0; ; {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			// No newline before EOF: an interrupted final append.
			return good, nil
		}
		if err != nil {
			return 0, err
		}
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			var rec R
			if err := json.Unmarshal(trimmed, &rec); err != nil {
				if _, perr := br.Peek(1); perr == io.EOF {
					// A corrupt *final* line is a torn write too; drop it.
					return good, nil
				}
				return 0, fmt.Errorf("bad record %d: %w", n, err)
			}
			if err := check(rec); err != nil {
				return 0, err
			}
			n++
		}
		good += int64(len(line))
	}
}

// pinRequest binds the log to the logical job request via a "<path>.meta"
// sidecar: written on first use, compared on resume. A log with records
// but no sidecar is unidentifiable and rejected.
func pinRequest(path string, req server.JobRequest) error {
	want, err := json.Marshal(req)
	if err != nil {
		return err
	}
	metaPath := path + ".meta"
	existing, err := os.ReadFile(metaPath)
	switch {
	case err == nil:
		if !bytes.Equal(bytes.TrimSpace(existing), want) {
			return fmt.Errorf("checkpoint %s belongs to a different job request (see %s)", path, metaPath)
		}
		return nil
	case errors.Is(err, fs.ErrNotExist):
		if st, serr := os.Stat(path); serr == nil && st.Size() > 0 {
			return fmt.Errorf("checkpoint %s has records but no %s sidecar identifying its request", path, metaPath)
		}
		return os.WriteFile(metaPath, append(want, '\n'), 0o644)
	default:
		return err
	}
}

// Append logs one record, fsyncing once syncEvery records have
// accumulated since the last sync.
func (w *wal[R]) Append(rec R) error {
	if w == nil {
		return nil
	}
	line, err := w.encode(w.line[:0], rec)
	if err != nil {
		return err
	}
	w.line = append(line, '\n')
	if _, err := w.f.Write(w.line); err != nil {
		return err
	}
	if w.unsynced++; w.unsynced >= w.syncEvery {
		w.unsynced = 0
		return w.f.Sync()
	}
	return nil
}

// Close syncs and closes the log, reporting any error — the caller must
// not claim durable completion over a failed sync. Close is idempotent,
// so a run can both defer it for cleanup and check it on success.
func (w *wal[R]) Close() error {
	if w == nil || w.f == nil {
		return nil
	}
	f := w.f
	w.f = nil
	return errors.Join(f.Sync(), f.Close())
}
