package segment

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"guardedrules/internal/core"
	"guardedrules/internal/database"
)

// errCorrupt marks a torn or damaged record. A crash tears the log's
// tail, which Open truncates; in the committed prefix it is fatal.
var errCorrupt = errors.New("segment: corrupt record")

// ErrClosed is returned by Commit on a closed store.
var ErrClosed = errors.New("segment: store is closed")

// Options configures a Store.
type Options struct {
	// Sync fsyncs the log on every Commit. Without it a commit is
	// durable against process crash but not against power loss.
	Sync bool
}

// Store is a journal over a private mirror: an in-memory
// *database.Database plus an append-only write-ahead log in its own
// directory. Add and Retract apply to the mirror and journal the
// operation; Commit makes the journaled prefix crash-durable; Clone
// hands readers a copy of the mirror. Uncommitted mutations show in a
// Clone but are discarded by a reopen.
//
// A Store is not safe for concurrent use; the server serializes each
// store's writers and publishes clones to readers.
type Store struct {
	dir  string
	opts Options

	mem *database.Database

	f *os.File
	w *bufio.Writer

	version     uint64
	relKeys     []core.RelKey
	relIDs      map[core.RelKey]uint32
	loggedTerms int // intern ids below this are journaled

	scratch []byte
	frame   []byte // writeRecord's framing buffer
	err     error  // first journaling failure; store refuses writes after
	closed  bool
}

// walFile is the store's log, the one file it writes. The name keeps
// the generation suffix of an earlier layout, so every directory a store
// has written reopens unchanged.
const walFile = "wal-000000.log"

// Open opens (or creates) the store rooted at dir. It replays the
// write-ahead log up to its last valid commit record and truncates any
// torn tail. A snapshot or a log of another generation, which only an
// earlier layout wrote, fails the open: replaying the log without it
// would lose or resurrect facts.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		snap := strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, ".seg")
		wal := strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log")
		if snap || wal && name != walFile {
			return nil, fmt.Errorf("segment: %s: unsupported store file (a store keeps only %s)", filepath.Join(dir, name), walFile)
		}
	}
	s := &Store{
		dir:    dir,
		opts:   opts,
		mem:    database.New(),
		relIDs: make(map[core.RelKey]uint32),
	}
	if err := s.openWAL(); err != nil {
		return nil, err
	}
	s.loggedTerms = s.mem.InternEpoch()
	return s, nil
}

// openWAL opens the log, replays its committed prefix, and truncates
// everything after the last valid commit record.
func (s *Store) openWAL() error {
	path := filepath.Join(s.dir, walFile)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	// Pass 1: find the offset after the last valid commit record.
	rr := &recordReader{r: bufio.NewReader(f)}
	var committed int64
	for {
		payload, err := rr.next()
		if err != nil {
			if err == io.EOF || errors.Is(err, errCorrupt) {
				break
			}
			f.Close()
			return err
		}
		if payload[0] == recCommit {
			committed = rr.off
		}
	}
	// Pass 2: replay records up to that offset.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("segment: %w", err)
	}
	rr = &recordReader{r: bufio.NewReader(io.LimitReader(f, committed))}
	for {
		payload, err := rr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("segment: committed prefix of %s: %w", walFile, err)
		}
		if err := s.apply(payload); err != nil {
			f.Close()
			return fmt.Errorf("segment: %s: %w", walFile, err)
		}
	}
	// Drop the torn/uncommitted tail and position the writer at the end.
	if err := f.Truncate(committed); err != nil {
		f.Close()
		return fmt.Errorf("segment: %w", err)
	}
	if _, err := f.Seek(committed, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("segment: %w", err)
	}
	s.f = f
	s.w = bufio.NewWriter(f)
	return nil
}

// apply replays one record payload onto the in-memory mirror.
func (s *Store) apply(payload []byte) error {
	typ, body := payload[0], payload[1:]
	switch typ {
	case recTerm:
		if len(body) < 1 {
			return fmt.Errorf("%w: short term record", errCorrupt)
		}
		t := core.Term{Kind: core.TermKind(body[0]), Name: string(body[1:])}
		want := uint32(s.mem.InternEpoch())
		if got := s.mem.InternTerm(t); got != want {
			return fmt.Errorf("%w: term %q interned as %d, want %d", errCorrupt, t.Name, got, want)
		}
	case recRel:
		if len(body) < 4 {
			return fmt.Errorf("%w: short rel record", errCorrupt)
		}
		rk := core.RelKey{
			AnnArity: int(uint16(body[0])<<8 | uint16(body[1])),
			Arity:    int(uint16(body[2])<<8 | uint16(body[3])),
			Name:     string(body[4:]),
		}
		s.relIDs[rk] = uint32(len(s.relKeys))
		s.relKeys = append(s.relKeys, rk)
	case recAdd, recDel:
		a, err := s.atomFromKey(body)
		if err != nil {
			return err
		}
		switch typ {
		case recAdd:
			if _, err := s.mem.AddNotify(a, nil); err != nil {
				return fmt.Errorf("%w: replay add %s: %w", errCorrupt, a.String(), err)
			}
		case recDel:
			if _, err := s.mem.DeleteNotify(a, nil); err != nil {
				return fmt.Errorf("%w: replay del %s: %w", errCorrupt, a.String(), err)
			}
		}
	case recCommit:
		if len(body) != 8 {
			return fmt.Errorf("%w: short commit record", errCorrupt)
		}
		v := uint64(beUint32(body))<<32 | uint64(beUint32(body[4:]))
		s.version = v
	default:
		return fmt.Errorf("%w: unknown record type %d", errCorrupt, typ)
	}
	return nil
}

func beUint32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// atomFromKey reconstructs a ground atom from a packed (relID, ids) key
// using the replayed relation table and intern table.
func (s *Store) atomFromKey(key []byte) (core.Atom, error) {
	relID, ids, ok := UnpackKey(key)
	if !ok || relID >= uint32(len(s.relKeys)) {
		return core.Atom{}, fmt.Errorf("%w: bad packed key", errCorrupt)
	}
	rk := s.relKeys[relID]
	if len(ids) != rk.Arity+rk.AnnArity {
		return core.Atom{}, fmt.Errorf("%w: key arity %d for %s", errCorrupt, len(ids), rk.Name)
	}
	epoch := uint32(s.mem.InternEpoch())
	for _, id := range ids {
		if id >= epoch {
			return core.Atom{}, fmt.Errorf("%w: unknown term id %d", errCorrupt, id)
		}
	}
	a := core.Atom{Relation: rk.Name}
	if rk.Arity > 0 {
		a.Args = make([]core.Term, rk.Arity)
		for i := range a.Args {
			a.Args[i] = s.mem.Term(ids[i])
		}
	}
	if rk.AnnArity > 0 {
		a.Annotation = make([]core.Term, rk.AnnArity)
		for i := range a.Annotation {
			a.Annotation[i] = s.mem.Term(ids[rk.Arity+i])
		}
	}
	return a, nil
}

// --- journaling ---------------------------------------------------------

// logNewTerms journals intern-table growth since the last call, so the
// dense id space replays exactly.
func (s *Store) logNewTerms() {
	epoch := s.mem.InternEpoch()
	for id := s.loggedTerms; id < epoch; id++ {
		t := s.mem.Term(uint32(id))
		s.scratch = append(s.scratch[:0], recTerm, byte(t.Kind))
		s.scratch = append(s.scratch, t.Name...)
		s.writeRecord(s.scratch)
	}
	s.loggedTerms = epoch
}

// relIDFor returns the durable relation id for rk, journaling a rel
// record the first time rk is seen. The table keeps its own copy of the
// name, never the text the fact was parsed from.
func (s *Store) relIDFor(rk core.RelKey) uint32 {
	if id, ok := s.relIDs[rk]; ok {
		return id
	}
	rk.Name = strings.Clone(rk.Name)
	id := uint32(len(s.relKeys))
	s.relIDs[rk] = id
	s.relKeys = append(s.relKeys, rk)
	s.scratch = append(s.scratch[:0], recRel,
		byte(rk.AnnArity>>8), byte(rk.AnnArity),
		byte(rk.Arity>>8), byte(rk.Arity))
	s.scratch = append(s.scratch, rk.Name...)
	s.writeRecord(s.scratch)
	return id
}

// journalOp journals an add or del, already applied to the mirror, of
// the fact of rk with the id tuple the mirror resolved.
func (s *Store) journalOp(typ byte, rk core.RelKey, ids []uint32) {
	s.logNewTerms()
	relID := s.relIDFor(rk)
	s.scratch = append(s.scratch[:0], typ)
	s.scratch = PackKey(s.scratch, relID, ids)
	s.writeRecord(s.scratch)
}

// writeRecord frames the payload into the store's one reused frame
// buffer and appends it to the log.
func (s *Store) writeRecord(payload []byte) {
	if s.err != nil {
		return
	}
	s.frame = appendRecord(s.frame[:0], payload)
	if _, err := s.w.Write(s.frame); err != nil {
		s.fail(fmt.Errorf("segment: append: %w", err))
	}
}

// fail latches the first journaling error; the store refuses further
// mutation so the mirror cannot silently diverge from the log.
func (s *Store) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Commit appends a commit record, flushes, and (with Options.Sync)
// fsyncs: everything journaled so far becomes crash-durable, and the
// store's version advances. Reopening discards anything after the last
// commit record.
func (s *Store) Commit() (uint64, error) {
	if s.closed {
		return s.version, ErrClosed
	}
	if s.err != nil {
		return s.version, s.err
	}
	next := s.version + 1
	s.scratch = append(s.scratch[:0], recCommit,
		byte(next>>56), byte(next>>48), byte(next>>40), byte(next>>32),
		byte(next>>24), byte(next>>16), byte(next>>8), byte(next))
	s.writeRecord(s.scratch)
	if s.err == nil {
		if err := s.w.Flush(); err != nil {
			s.fail(fmt.Errorf("segment: flush: %w", err))
		}
	}
	if s.err == nil && s.opts.Sync {
		if err := s.f.Sync(); err != nil {
			s.fail(fmt.Errorf("segment: sync: %w", err))
		}
	}
	if s.err != nil {
		return s.version, s.err
	}
	s.version = next
	return s.version, nil
}

// Version returns the version of the last commit (0 before any commit).
func (s *Store) Version() uint64 { return s.version }

// Close flushes and closes the log. Uncommitted mutations are not made
// durable: a reopen discards them, exactly as a crash would. Clone keeps
// working on the in-memory mirror; Add and Retract are refused and
// Commit returns ErrClosed.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if err := s.w.Flush(); err != nil && first == nil {
		first = err
	}
	if s.opts.Sync {
		if err := s.f.Sync(); err != nil && first == nil {
			first = err
		}
	}
	if err := s.f.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// --- journaled mutators --------------------------------------------------

// Add applies the insertion to the mirror and journals it, reporting
// whether the fact was new. A non-ground atom, a closed store, or one
// that latched a journaling error refuses the write and reports false.
func (s *Store) Add(a core.Atom) bool {
	if s.closed || s.err != nil {
		return false
	}
	var buf [16]uint32
	// A non-ground atom is refused and reports false, as documented.
	ids, added, _ := s.mem.AddTuple(buf[:0], a, nil)
	if added {
		s.journalOp(recAdd, a.Key(), ids)
	}
	return added
}

// Retract applies the retraction to the mirror and journals it,
// reporting whether a fact was removed. A retraction is journaled even
// when no fact was removed if it may have unpinned an explicit ACDom
// entry — that side effect must replay.
func (s *Store) Retract(a core.Atom) bool {
	if s.closed || s.err != nil {
		return false
	}
	removed := s.mem.Retract(a)
	if removed || a.Relation == core.ACDom {
		var buf [16]uint32
		if ids, ok := s.mem.FactIDs(buf[:0], a); ok {
			s.journalOp(recDel, a.Key(), ids)
		}
	}
	return removed
}

// Clone returns an in-memory working copy of the mirror with the
// identical id space. It is the store's only read path: readers and
// engines work on the copy, and the mirror never escapes.
func (s *Store) Clone() *database.Database { return s.mem.Clone() }
