package soak

// The persisted corpus: a directory of one-JSON-file-per-entry, each a
// replayable (seed, JobConfig) pair with the outcome it was recorded
// under. Filenames are content-addressed — fail-<sha256[:16]>.json for
// shrunk failing seeds, seed-<sha256[:16]>.json for the fixed
// regression seeds — so writing an entry twice is idempotent and two
// corpora merge by copying files. Entries are stable JSON (indented,
// sorted keys, trailing newline); a corpus diffs cleanly under git and
// the nightly CI cache keys on a hash of the directory.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Entry kinds.
const (
	// KindFailing marks a shrunk failing (or, under Strict, degrading)
	// seed: a reproducer for a bug or a known out-of-model degradation.
	KindFailing = "failing"
	// KindInteresting marks a fixed regression seed: not a failure, but
	// a recorded outcome worth replaying. Nothing writes new ones; the
	// kind stays loadable for the committed seed-* files.
	KindInteresting = "interesting"
)

// Entry is one persisted corpus item.
type Entry struct {
	// Kind is KindFailing or KindInteresting.
	Kind string `json:"kind"`
	// Seed + Cfg replay the instance exactly (simtest.GenSpec).
	Seed int64     `json:"seed"`
	Cfg  JobConfig `json:"cfg"`
	// Protocol/Outcome/Signature record what the seed did when it was
	// captured; replay checks Outcome and Signature.
	Protocol  string `json:"protocol"`
	Outcome   string `json:"outcome"`
	Signature string `json:"signature"`
	// ReplayConfirmed carries the shrinker's replay confirmation
	// (failing entries only).
	ReplayConfirmed bool `json:"replay_confirmed,omitempty"`
}

// encode renders the stable on-disk form.
func (e *Entry) encode() ([]byte, error) {
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return nil, fmt.Errorf("%w: marshal entry: %v", ErrCorpus, err)
	}
	return append(data, '\n'), nil
}

// Filename returns the entry's content-addressed basename.
func (e *Entry) Filename() (string, error) {
	data, err := e.encode()
	if err != nil {
		return "", err
	}
	prefix := "seed"
	if e.Kind == KindFailing {
		prefix = "fail"
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%s-%x.json", prefix, sum[:8]), nil
}

// WriteEntry persists e into dir (created if missing), atomically and
// idempotently. It returns the written basename and whether the entry
// was new (false: an identical entry already existed). A file of that
// name with other bytes is an ErrCorpus error.
func WriteEntry(dir string, e *Entry) (string, bool, error) {
	data, err := e.encode()
	if err != nil {
		return "", false, err
	}
	name, err := e.Filename()
	if err != nil {
		return "", false, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", false, fmt.Errorf("%w: mkdir %s: %v", ErrCorpus, dir, err)
	}
	path := filepath.Join(dir, name)
	switch old, err := os.ReadFile(path); {
	case err == nil && bytes.Equal(old, data):
		return name, false, nil
	case err == nil: // edited since it was written under this hash
		return "", false, fmt.Errorf("%w: %s exists with other content", ErrCorpus, path)
	case !os.IsNotExist(err):
		return "", false, fmt.Errorf("%w: read %s: %v", ErrCorpus, path, err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", false, fmt.Errorf("%w: write %s: %v", ErrCorpus, tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", false, fmt.Errorf("%w: rename %s: %v", ErrCorpus, tmp, err)
	}
	return name, true, nil
}

// LoadCorpus reads every entry in dir and returns the basenames and
// their entries, sorted by basename (stable iteration order for
// planning and replay). A missing directory is an empty corpus.
func LoadCorpus(dir string) ([]string, []*Entry, error) {
	if dir == "" {
		return nil, nil, nil
	}
	names, err := corpusFiles(dir)
	if err != nil {
		return nil, nil, err
	}
	out := make([]*Entry, 0, len(names))
	for _, name := range names {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: read %s: %v", ErrCorpus, path, err)
		}
		var e Entry
		if err := json.Unmarshal(data, &e); err != nil {
			return nil, nil, fmt.Errorf("%w: decode %s: %v", ErrCorpus, path, err)
		}
		out = append(out, &e)
	}
	return names, out, nil
}

// corpusFiles lists the entry basenames in dir, sorted.
func corpusFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: read dir %s: %v", ErrCorpus, dir, err)
	}
	var names []string
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		names = append(names, de.Name())
	}
	sort.Strings(names)
	return names, nil
}

// Replay verdict classifications.
const (
	// ReplayReproduced: the entry's outcome and signature reproduced
	// byte-for-byte — the known-bad seed is still caught.
	ReplayReproduced = "reproduced"
	// ReplayStale: the seed now passes cleanly (the bug behind a
	// failing entry was fixed); prune the entry.
	ReplayStale = "stale"
	// ReplayDiverged: the seed neither reproduces its record nor passes
	// — behavior changed on a known seed, which is a determinism or
	// protocol regression until a human re-records the corpus.
	ReplayDiverged = "diverged"
)

// ReplayResult is one corpus entry's replay verdict.
type ReplayResult struct {
	File    string `json:"file"`
	Entry   *Entry `json:"entry"`
	Verdict string `json:"verdict"`
	// Detail describes a divergence (current outcome/signature).
	Detail string `json:"detail,omitempty"`
}

// ReplayCorpus re-runs every corpus entry in dir and classifies each as
// reproduced, stale or diverged. It returns the per-entry results and
// an error wrapping ErrReplayDiverged if any entry diverged. When prune
// is true, stale entries are deleted from the directory.
func ReplayCorpus(ctx context.Context, dir string, prune bool) ([]ReplayResult, error) {
	names, entries, err := LoadCorpus(dir)
	if err != nil {
		return nil, err
	}
	var out []ReplayResult
	diverged := 0
	for i, e := range entries {
		r := replayEntry(ctx, e)
		r.File = names[i]
		if r.Verdict == ReplayDiverged {
			diverged++
		}
		if r.Verdict == ReplayStale && prune {
			path := filepath.Join(dir, names[i])
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return nil, fmt.Errorf("%w: prune %s: %v", ErrCorpus, path, err)
			}
		}
		out = append(out, r)
	}
	if diverged > 0 {
		return out, fmt.Errorf("%w: %d of %d entries", ErrReplayDiverged, diverged, len(out))
	}
	return out, nil
}

// replayEntry re-runs one entry and classifies the result. The job
// machinery is reused so the verdict comes from the exact code path a
// soak would take.
func replayEntry(ctx context.Context, e *Entry) ReplayResult {
	job := &Job{Seeds: []int64{e.Seed}, Cfg: e.Cfg}
	res, err := RunBlock(ctx, job, 1)
	if err != nil {
		return ReplayResult{Entry: e, Verdict: ReplayDiverged, Detail: fmt.Sprintf("replay error: %v", err)}
	}
	return replayVerdict(res.Verdicts[0], e)
}

// replayVerdict holds a fresh verdict of e's seed to e's record. A
// corpus replay and a soak's corpus blocks both judge entries here.
func replayVerdict(v SeedVerdict, e *Entry) ReplayResult {
	switch {
	case v.Outcome == e.Outcome && v.Signature == e.Signature:
		return ReplayResult{Entry: e, Verdict: ReplayReproduced}
	case v.Outcome == OutcomePass && e.Outcome != OutcomePass:
		return ReplayResult{Entry: e, Verdict: ReplayStale}
	}
	return ReplayResult{Entry: e, Verdict: ReplayDiverged,
		Detail: fmt.Sprintf("outcome %s signature %q (recorded %s %q)", v.Outcome, v.Signature, e.Outcome, e.Signature)}
}
