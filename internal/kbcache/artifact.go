package kbcache

import (
	"context"
	"fmt"

	"guardedrules/internal/datalog"
	"guardedrules/internal/parser"
)

// Artifact is the durable form of a compiled KB: everything needed to
// rebuild the artifact without re-running the expensive translation
// steps (rew(Σ), dat(Σ)). The cheap pay-once work — parse, lint,
// classification, termination analysis — is recomputed on load, which
// keeps the on-disk format a small, human-auditable JSON document and
// immune to staleness in the analysis code. The ID doubles as an
// integrity check: a loaded artifact whose source does not hash to its
// ID is rejected.
type Artifact struct {
	// FormatVersion guards against decoding artifacts written by an
	// incompatible release.
	FormatVersion int `json:"format_version"`
	// ID is the hex sha256 of Source (the cache key).
	ID string `json:"id"`
	// Source is the registered theory text, verbatim.
	Source string `json:"source"`
	// Mode is the compiled mode (Mode.String()).
	Mode string `json:"mode"`
	// Chain documents the compilation chain, one step per line.
	Chain []string `json:"chain,omitempty"`
	// Translated is the printed dat(Σ) theory for ModeTranslated KBs —
	// the product of the double-exponential saturation, and the reason
	// artifacts are worth persisting. Empty in every other mode.
	Translated string `json:"translated,omitempty"`
}

// ArtifactFormatVersion is the current on-disk artifact format. Format
// 1 artifacts may hold a dat(Σ) from the earlier term-space saturator,
// which could join unrelated nulls and derive unsound rules; they are
// rejected, so their theories are compiled again from source.
const ArtifactFormatVersion = 2

// Artifact renders the KB's durable form.
func (kb *CompiledKB) Artifact() Artifact {
	a := Artifact{
		FormatVersion: ArtifactFormatVersion,
		ID:            kb.ID,
		Source:        kb.Source,
		Mode:          kb.Mode.String(),
		Chain:         kb.Chain,
	}
	if kb.Mode == ModeTranslated && kb.translated != nil {
		a.Translated = parser.PrintTheory(kb.translated)
	}
	return a
}

// RegisterArtifact interns a previously persisted artifact, reusing its
// saved translation instead of re-running saturation. Modes without a
// saved translation (datalog, chase, certified) recompile from source —
// their pipeline is cheap. The artifact's integrity is checked: the
// source must hash to the ID and the saved translation must compile.
func (s *Store) RegisterArtifact(ctx context.Context, a Artifact) (kb *CompiledKB, cached bool, err error) {
	if a.FormatVersion != ArtifactFormatVersion {
		return nil, false, fmt.Errorf("kbcache: artifact format %d, want %d", a.FormatVersion, ArtifactFormatVersion)
	}
	if HashSource(a.Source) != a.ID {
		return nil, false, fmt.Errorf("kbcache: artifact id %.12s… does not match its source hash", a.ID)
	}
	if a.Mode != ModeTranslated.String() || a.Translated == "" {
		return s.Register(ctx, a.Source)
	}
	return s.intern(ctx, a.ID, &s.metrics.ArtifactLoads, func(context.Context) (*CompiledKB, error) {
		return s.compileFromArtifact(a)
	})
}

// compileFromArtifact rebuilds a ModeTranslated KB from its saved
// translation: the cheap analyses rerun, the saturation does not.
func (s *Store) compileFromArtifact(a Artifact) (*CompiledKB, error) {
	kb, err := s.analyze(a.ID, a.Source)
	if err != nil {
		return nil, err
	}
	dat, err := parser.ParseTheory(a.Translated)
	if err != nil {
		return nil, fmt.Errorf("kbcache: artifact translation: %w", err)
	}
	prog, err := datalog.Compile(dat)
	if err != nil {
		return nil, fmt.Errorf("kbcache: artifact translation: %w", err)
	}
	kb.Mode = ModeTranslated
	kb.program = prog
	kb.translated = dat
	kb.Chain = a.Chain
	if len(kb.Chain) == 0 {
		kb.Chain = []string{fmt.Sprintf("restored dat(Σ) artifact: %d Datalog rules", len(dat.Rules))}
	}
	return kb, nil
}
