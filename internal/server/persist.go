package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"guardedrules/internal/kbcache"
	"guardedrules/internal/store/segment"
)

// Persistence layout under Config.DataDir:
//
//	<data-dir>/dbs/<id>/        — one segment store per fact DB; the
//	                              directory name is the DB id (a hex
//	                              sha256, always a safe filename)
//	<data-dir>/theories/<id>.json — one kbcache artifact per theory
//
// A fact DB's served version number IS its segment store's commit
// counter, so db_version survives restarts: version 7 before a crash is
// version 7 after reopening, and the next batch is 8 either way.
// Batches commit to the store before the new version is published to
// readers — a crash at any point loses at most the response of a batch
// the client never saw succeed, never a batch that was acknowledged.
//
// Theories persist as compiled-KB artifacts keyed by source hash: the
// saturation product (dat(Σ)) rides along, so reopening a store skips
// the double-exponential translation step entirely.

// dbsDir / theoriesDir locate the two persistence roots.
func (s *Server) dbsDir() string      { return filepath.Join(s.cfg.DataDir, "dbs") }
func (s *Server) theoriesDir() string { return filepath.Join(s.cfg.DataDir, "theories") }

func (s *Server) dbDir(id string) string { return filepath.Join(s.dbsDir(), id) }

func (s *Server) theoryPath(id string) string {
	return filepath.Join(s.theoriesDir(), id+".json")
}

// persistent reports whether this server journals to disk.
func (s *Server) persistent() bool { return s.cfg.DataDir != "" }

// openSeg opens (or creates) the segment store of one DB.
func (s *Server) openSeg(id string) (*segment.Store, error) {
	return segment.Open(s.dbDir(id), segment.Options{Sync: s.cfg.SyncWrites})
}

// RestoreData reopens every persisted fact DB and theory artifact under
// Config.DataDir. Call it once after New and before serving; it is a
// no-op without a data dir. Databases resume at their last committed
// version (db_version continuity); theories recompile from their saved
// artifacts, skipping re-saturation. A corrupt artifact is logged and
// skipped — the theory can simply be re-registered — but a DB that
// fails to open is an error: silently serving without a client's
// durable data would be worse than failing the boot.
func (s *Server) RestoreData() error {
	if !s.persistent() {
		return nil
	}
	for _, dir := range []string{s.dbsDir(), s.theoriesDir()} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("server: data dir: %w", err)
		}
	}

	arts, err := os.ReadDir(s.theoriesDir())
	if err != nil {
		return fmt.Errorf("server: data dir: %w", err)
	}
	for _, e := range arts {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		if err := s.loadTheoryArtifact(filepath.Join(s.theoriesDir(), e.Name())); err != nil {
			log.Printf("server: skipping theory artifact %s: %v", e.Name(), err)
		}
	}

	dbs, err := os.ReadDir(s.dbsDir())
	if err != nil {
		return fmt.Errorf("server: data dir: %w", err)
	}
	for _, e := range dbs {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		seg, err := s.openSeg(id)
		if err != nil {
			return fmt.Errorf("server: reopen db %q: %w", id, err)
		}
		ent := &dbEntry{id: id, views: make(map[viewKey]*view), seg: seg}
		db := seg.Clone()
		ent.cur.Store(&dbVersion{db: db, version: seg.Version(), facts: userFacts(db)})
		var victim *dbEntry
		s.mu.Lock()
		if _, v, evicted := s.dbs.Add(id, ent); evicted {
			s.dbEvictions.Add(1)
			victim = v
		}
		s.mu.Unlock()
		// More persisted DBs than MaxDBs: the oldest fall out of memory
		// immediately, but their files stay — a POST /v1/dbs brings one
		// back. Closing the victim here is what keeps a boot's FD count
		// bounded by MaxDBs rather than by the directory.
		s.teardownEvicted(victim, "MaxDBs exceeded while restoring data dir")
	}
	return nil
}

// CloseData flushes and closes every open segment store. Call it after
// draining: batches in flight while it runs would fail their commits.
func (s *Server) CloseData() error {
	if !s.persistent() {
		return nil
	}
	s.mu.Lock()
	ents := make([]*dbEntry, 0, s.dbs.Len())
	for _, id := range s.dbs.Keys() {
		if ent, ok := s.dbs.Get(id); ok {
			ents = append(ents, ent)
		}
	}
	s.mu.Unlock()
	var firstErr error
	for _, ent := range ents {
		ent.mu.Lock()
		err := ent.closeSegLocked()
		ent.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// closeSegLocked closes the entry's segment store (idempotent; caller
// holds ent.mu, which every journal write also holds, so a close can
// never race a batch's writes).
func (e *dbEntry) closeSegLocked() error {
	if e.seg == nil {
		return nil
	}
	err := e.seg.Close()
	if errors.Is(err, segment.ErrClosed) {
		err = nil
	}
	return err
}

// teardownEvicted tears down a DB entry the LRU evicted: its views are
// dropped, every live subscriber with a terminal error frame, and the
// segment store's file handles are closed so eviction never leaks
// descriptors. Runs outside s.mu (writers take ent.mu before s.mu, so
// nesting the other way would deadlock); taking victim.mu serializes
// against any in-flight batch, which therefore finishes its journal
// writes and commit on a still-open store. nil victims are a no-op.
func (s *Server) teardownEvicted(victim *dbEntry, why string) {
	if victim == nil {
		return
	}
	victim.mu.Lock()
	for key := range victim.views {
		s.dropViewLocked(victim, key, fmt.Errorf("db %q evicted (%s); stream closed", victim.id, why))
	}
	victim.views = nil
	if err := victim.closeSegLocked(); err != nil {
		log.Printf("server: closing evicted db %q: %v", victim.id, err)
	}
	victim.mu.Unlock()
}

// persistTheory writes a freshly compiled KB's artifact, tmp+rename so
// readers (and a crash) never see a torn file. Persistence failures are
// logged, not surfaced: the registration itself succeeded, and the
// theory merely won't survive a restart.
func (s *Server) persistTheory(ckb *kbcache.CompiledKB) {
	if !s.persistent() {
		return
	}
	a := ckb.Artifact()
	blob, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		log.Printf("server: persisting theory %.12s…: %v", ckb.ID, err)
		return
	}
	path := s.theoryPath(ckb.ID)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		log.Printf("server: persisting theory %.12s…: %v", ckb.ID, err)
	}
}

// loadTheoryArtifact restores one persisted theory into the KB store.
func (s *Server) loadTheoryArtifact(path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var a kbcache.Artifact
	if err := json.Unmarshal(blob, &a); err != nil {
		return err
	}
	_, _, err = s.store.RegisterArtifact(context.Background(), a)
	return err
}

// theoryPersisted reports whether an artifact file exists for the id.
func (s *Server) theoryPersisted(id string) bool {
	if !s.persistent() {
		return false
	}
	_, err := os.Stat(s.theoryPath(id))
	return err == nil
}
