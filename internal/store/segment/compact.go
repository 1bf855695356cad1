package segment

import (
	"bufio"

	"fmt"
	"guardedrules/internal/core"
	"io"
	"os"
	"path/filepath"
)

// Compact folds the committed state into a fresh snapshot of the next
// generation and starts an empty write-ahead log, reclaiming the space
// of the retraction history. Pending mutations are committed first.
//
// A snapshot is a pure state dump — terms in id order, every relation's
// facts in enumeration order, ACDom support counts, and the pin set —
// loaded through the database restore hooks rather than replayed through
// AddNotify, so enumeration orders (which engine determinism depends on)
// survive compaction exactly, including swap-remove history.
//
// Crash safety: the snapshot is published by atomic rename, and
// generations pair each snapshot with its own log file. A crash between
// rename and log creation leaves the new snapshot with a missing (hence
// empty) log; files of older generations are removed on open.
func (s *Store) Compact() error {
	if s.closed {
		return ErrClosed
	}
	if s.err != nil {
		return s.err
	}
	if s.pending > 0 {
		if _, err := s.Commit(); err != nil {
			return err
		}
	}
	next := s.gen + 1
	tmpPath := filepath.Join(s.dir, snapName(next)+".tmp")
	relIDs, relKeys, err := s.writeSnapshot(tmpPath)
	if err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, snapName(next))); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("segment: publish snapshot: %w", err)
	}
	syncDir(s.dir)
	nf, err := os.OpenFile(filepath.Join(s.dir, walName(next)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("segment: new log: %w", err)
	}
	old, oldGen := s.f, s.gen
	s.f, s.w, s.gen = nf, bufio.NewWriter(nf), next
	s.relIDs, s.relKeys = relIDs, relKeys
	old.Close()
	os.Remove(filepath.Join(s.dir, snapName(oldGen)))
	os.Remove(filepath.Join(s.dir, walName(oldGen)))
	return nil
}

// writeSnapshot dumps the mirror to path and returns the relation-id
// assignment the snapshot defines.
func (s *Store) writeSnapshot(path string) (map[core.RelKey]uint32, []core.RelKey, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("segment: snapshot: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var rec []byte
	emit := func(payload []byte) error {
		rec = appendRecord(rec[:0], payload)
		_, err := w.Write(rec)
		return err
	}
	var payload []byte

	epoch := s.mem.InternEpoch()
	for id := 0; id < epoch; id++ {
		t := s.mem.Term(uint32(id))
		payload = append(payload[:0], recTerm, byte(t.Kind))
		payload = append(payload, t.Name...)
		if err := emit(payload); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("segment: snapshot: %w", err)
		}
	}

	relIDs := make(map[core.RelKey]uint32)
	var relKeys []core.RelKey
	var ids []uint32
	for _, rk := range sortedRelKeys(s.mem) {
		relID := uint32(len(relKeys))
		relIDs[rk] = relID
		relKeys = append(relKeys, rk)
		payload = append(payload[:0], recRel,
			byte(rk.AnnArity>>8), byte(rk.AnnArity),
			byte(rk.Arity>>8), byte(rk.Arity))
		payload = append(payload, rk.Name...)
		if err := emit(payload); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("segment: snapshot: %w", err)
		}
		w2 := rk.Arity + rk.AnnArity
		tuples := s.mem.IDTuples(rk)
		for off := 0; off+w2 <= len(tuples) || (w2 == 0 && off < s.mem.RelSize(rk)); off += max(w2, 1) {
			if w2 == 0 {
				ids = ids[:0]
			} else {
				ids = append(ids[:0], tuples[off:off+w2]...)
			}
			payload = append(payload[:0], recFact)
			payload = PackKey(payload, relID, ids)
			if err := emit(payload); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("segment: snapshot: %w", err)
			}
		}
	}

	for id := 0; id < epoch; id++ {
		t := s.mem.Term(uint32(id))
		if n := s.mem.ACDomSupport(t); n > 0 {
			payload = append(payload[:0], recSupport,
				byte(uint32(id)>>24), byte(uint32(id)>>16), byte(uint32(id)>>8), byte(id),
				byte(uint32(n)>>24), byte(uint32(n)>>16), byte(uint32(n)>>8), byte(n))
			if err := emit(payload); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("segment: snapshot: %w", err)
			}
		}
		if s.mem.ACDomPinned(t) {
			payload = append(payload[:0], recPin,
				byte(uint32(id)>>24), byte(uint32(id)>>16), byte(uint32(id)>>8), byte(id))
			if err := emit(payload); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("segment: snapshot: %w", err)
			}
		}
	}

	v := s.version
	payload = append(payload[:0], recCommit,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	if err := emit(payload); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("segment: snapshot: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("segment: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("segment: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, nil, fmt.Errorf("segment: snapshot: %w", err)
	}
	return relIDs, relKeys, nil
}

// loadSnapshot strictly replays a published snapshot. Unlike the log, a
// snapshot admits no torn tail: it was published whole by rename.
func (s *Store) loadSnapshot(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	defer f.Close()
	rr := &recordReader{r: bufio.NewReader(f)}
	sawCommit := false
	for {
		payload, err := rr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("segment: snapshot %s: %w", filepath.Base(path), err)
		}
		if payload[0] == recCommit {
			sawCommit = true
		}
		if err := s.apply(payload); err != nil {
			return fmt.Errorf("segment: snapshot %s: %w", filepath.Base(path), err)
		}
	}
	if !sawCommit {
		return fmt.Errorf("%w: snapshot %s has no commit record", errCorrupt, filepath.Base(path))
	}
	return nil
}

// syncDir best-effort fsyncs a directory so a rename is durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
