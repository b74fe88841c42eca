package soak

// The coordinator: replays the corpus (failing on an entry that no
// longer reproduces, as ReplayCorpus does), then cuts base seeds into
// blocks, runs them one at a time on the batch engine, and commits each
// result in block order. The seed plan is a pure function of the options and
// the corpus, corpus writes and the summary derive from committed
// records only, and RunBlock's verdicts do not depend on its worker
// count — so two soaks of the same options summarize byte-identically.
//
// Wall-clock deadlines (duration budgets, context cancellation) gate
// only *execution*, never planning: a block planned but not yet run
// when the deadline passes commits nothing.

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"
)

// Block kinds recorded in each BlockRecord.
const (
	blockKindCorpus = "corpus"
	blockKindBase   = "base"
)

// Options configures a soak run.
type Options struct {
	// SeedBudget is the number of fresh seeds to run (corpus replays are
	// on top). Exactly this many seeds run when the soak completes.
	SeedBudget int64
	// Duration, when positive, runs chunks of base seeds until the
	// wall-clock budget is spent. Exactly one of SeedBudget and Duration
	// must be set.
	Duration time.Duration
	// BaseSeed is folded into every generated instance
	// (simtest.FuzzConfig.BaseSeed): two soaks with different base seeds
	// explore disjoint instance populations from the same seed indices.
	BaseSeed int64
	// Shards is the batch engine's worker count for each block (default
	// 1). A seed-budget soak's summary does not depend on it.
	Shards int
	// Regime/Protocols/Strict/Transport form the base generation recipe
	// (see JobConfig). Defaults: "mixed", all protocols, false, "sim".
	Regime    string
	Protocols []string
	Strict    bool
	Transport string
	// Corpus is the corpus directory ("" disables persistence and
	// replay).
	Corpus string
	// Log receives progress lines, one per phase and one before each
	// block runs (nil: silent).
	Log io.Writer

	// blockSize is the number of seeds per block (0 = defaultBlockSize);
	// the package's tests set it to keep their soaks small.
	blockSize int
}

// defaultBlockSize is the number of seeds per block.
const defaultBlockSize = 256

// normalize applies defaults and validates, returning the effective
// options.
func (o Options) normalize() (Options, error) {
	if (o.SeedBudget > 0) == (o.Duration > 0) {
		return o, fmt.Errorf("%w: need exactly one of a seed budget and a duration", ErrConfig)
	}
	if o.Shards < 0 {
		return o, fmt.Errorf("%w: negative Shards %d", ErrConfig, o.Shards)
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.blockSize == 0 {
		o.blockSize = defaultBlockSize
	}
	if o.Regime == "" {
		o.Regime = "mixed"
	}
	if _, err := ParseRegime(o.Regime); err != nil {
		return o, err
	}
	if _, err := ParseProtocols(o.Protocols); err != nil {
		return o, err
	}
	if o.Transport == "" {
		o.Transport = TransportSim
	}
	if o.Transport != TransportSim && o.Transport != TransportMesh {
		return o, fmt.Errorf("%w: unknown transport %q", ErrConfig, o.Transport)
	}
	return o, nil
}

// baseCfg is the soak's base generation recipe.
func (o Options) baseCfg() JobConfig {
	return JobConfig{
		BaseSeed:  o.BaseSeed,
		Regime:    o.Regime,
		Protocols: o.Protocols,
		Strict:    o.Strict,
		Transport: o.Transport,
	}
}

// BlockRecord is one committed block: the unit the summary is derived
// from.
type BlockRecord struct {
	Block int
	// Kind is "corpus" or "base".
	Kind string
	// Cfg is the block's generation recipe, Seeds its seeds in run
	// order.
	Cfg   JobConfig
	Seeds []int64
	// Outcomes has one byte per seed, in seed order: 'p' pass,
	// 'd' degraded, 'f' failed.
	Outcomes string
	// MeshCompared counts seeds cross-checked against the mesh backend.
	MeshCompared int
	// PerProtocol aggregates outcome counts by protocol name.
	PerProtocol map[string]OutcomeCounts
	// MinFailing is the block's shrunk reproducer, if any seed failed.
	MinFailing *FailingSeed
}

// coordinator is one soak run's mutable state.
type coordinator struct {
	opt     Options
	baseCfg JobConfig

	// blocks are the committed records, in commit (= block) order.
	blocks []BlockRecord

	// Planning cursors.
	nextBlock    int
	nextBaseSeed int64

	deadline time.Time // zero unless Duration is set
}

// Run executes a soak to completion (or its deadline) and returns the
// summary. On context cancellation it returns ErrInterrupted.
func Run(ctx context.Context, opt Options) (*Summary, error) {
	co, err := run(ctx, opt)
	if err != nil {
		return nil, err
	}
	return buildSummary(co.blocks, co.opt), nil
}

// run executes a soak and returns its committed state.
func run(ctx context.Context, opt Options) (*coordinator, error) {
	opt, err := opt.normalize()
	if err != nil {
		return nil, err
	}
	co := &coordinator{opt: opt, baseCfg: opt.baseCfg()}
	if opt.Duration > 0 {
		co.deadline = time.Now().Add(opt.Duration)
	}
	// The corpus is snapshotted before any block runs: the soak writes
	// into the same directory.
	plan, recorded, err := corpusPlan(opt.Corpus)
	if err != nil {
		return nil, err
	}
	if err := co.runJobs(ctx, blockKindCorpus, co.packCorpus(plan), recorded); err != nil {
		return nil, err
	}
	if opt.SeedBudget > 0 {
		co.logf("phase base: %d seeds", opt.SeedBudget)
		err = co.runJobs(ctx, blockKindBase, co.baseJobs(opt.SeedBudget), nil)
	} else {
		err = co.runDuration(ctx)
	}
	if err != nil {
		return nil, err
	}
	return co, nil
}

// runKey names one run of the corpus phase: a seed under a config.
func runKey(seed int64, cfg JobConfig) string {
	return fmt.Sprintf("%d@%s", seed, cfg.Key())
}

// corpusPlan freezes the corpus into a replay plan: its entries
// deduplicated by runKey and sorted by config key, then seed. It also
// returns every entry by runKey.
func corpusPlan(dir string) ([]*Entry, map[string][]*Entry, error) {
	_, entries, err := LoadCorpus(dir)
	if err != nil {
		return nil, nil, err
	}
	recorded := map[string][]*Entry{}
	var plan []*Entry
	for _, e := range entries {
		key := runKey(e.Seed, e.Cfg)
		if recorded[key] == nil {
			plan = append(plan, e)
		}
		recorded[key] = append(recorded[key], e)
	}
	sort.Slice(plan, func(i, j int) bool {
		ki, kj := plan[i].Cfg.Key(), plan[j].Cfg.Key()
		if ki != kj {
			return ki < kj
		}
		return plan[i].Seed < plan[j].Seed
	})
	return plan, recorded, nil
}

// runDuration runs chunks of base seeds, four blocks per shard each,
// until the deadline passes.
func (co *coordinator) runDuration(ctx context.Context) error {
	chunk := int64(co.opt.blockSize) * int64(4*co.opt.Shards)
	for epoch := 1; !co.expired(); epoch++ {
		co.logf("epoch %d: %d base seeds", epoch, chunk)
		if err := co.runJobs(ctx, blockKindBase, co.baseJobs(chunk), nil); err != nil {
			return err
		}
	}
	return nil
}

// expired reports that the duration budget is spent.
func (co *coordinator) expired() bool {
	return !co.deadline.IsZero() && time.Now().After(co.deadline)
}

// newJob mints the next block.
func (co *coordinator) newJob(cfg JobConfig, seeds []int64) *Job {
	j := &Job{Block: co.nextBlock, Seeds: seeds, Cfg: cfg}
	co.nextBlock++
	return j
}

// packCorpus groups the replay plan into blocks (one config per block).
func (co *coordinator) packCorpus(plan []*Entry) []*Job {
	var jobs []*Job
	for i := 0; i < len(plan); {
		j := i + 1
		for j < len(plan) && plan[j].Cfg.Key() == plan[i].Cfg.Key() && j-i < co.opt.blockSize {
			j++
		}
		seeds := make([]int64, 0, j-i)
		for _, e := range plan[i:j] {
			seeds = append(seeds, e.Seed)
		}
		jobs = append(jobs, co.newJob(plan[i].Cfg, seeds))
		i = j
	}
	if len(jobs) > 0 {
		co.logf("phase corpus: %d entries in %d blocks", len(plan), len(jobs))
	}
	return jobs
}

// baseJobs cuts the next count base seeds into blocks.
func (co *coordinator) baseJobs(count int64) []*Job {
	var jobs []*Job
	for count > 0 {
		n := int64(co.opt.blockSize)
		if n > count {
			n = count
		}
		seeds := make([]int64, n)
		for i := range seeds {
			seeds[i] = co.nextBaseSeed + int64(i)
		}
		co.nextBaseSeed += n
		count -= n
		jobs = append(jobs, co.newJob(co.baseCfg, seeds))
	}
	return jobs
}

// runJobs runs one phase's blocks in block order and commits each
// result before the next block starts; a corpus phase passes its
// entries by runKey to judge the verdicts against. The line logged
// before each block locates a fatal runtime error, which no recover can
// catch, in the block that raised it.
func (co *coordinator) runJobs(ctx context.Context, kind string, jobs []*Job, recorded map[string][]*Entry) error {
	for _, job := range jobs {
		if co.expired() {
			return nil
		}
		co.logf("block %d: %s, %d seeds from %d", job.Block, kind, len(job.Seeds), job.Seeds[0])
		br, err := RunBlock(ctx, job, co.opt.Shards)
		if ctx.Err() != nil {
			return fmt.Errorf("%w: %d blocks committed", ErrInterrupted, len(co.blocks))
		}
		if err != nil {
			return err
		}
		if err := co.checkCorpus(job, br, recorded); err != nil {
			return err
		}
		rec := newRecord(kind, job, br)
		if err := co.writeCorpus(rec); err != nil {
			return err
		}
		co.blocks = append(co.blocks, *rec)
		publishMetrics(rec)
	}
	return nil
}

// checkCorpus holds a block's verdicts to every entry recorded for
// their runKey, as ReplayCorpus does: a diverged entry fails the soak,
// a stale one (its seed now passes) is logged.
func (co *coordinator) checkCorpus(job *Job, br *BlockResult, recorded map[string][]*Entry) error {
	for i, v := range br.Verdicts {
		for _, e := range recorded[runKey(job.Seeds[i], job.Cfg)] {
			switch r := replayVerdict(v, e); r.Verdict {
			case ReplayStale:
				co.logf("corpus: stale entry, seed %d now passes (block %d)", e.Seed, job.Block)
			case ReplayDiverged:
				return fmt.Errorf("%w: corpus block %d, seed %d: %s", ErrReplayDiverged, job.Block, e.Seed, r.Detail)
			}
		}
	}
	return nil
}

// newRecord folds a block's verdicts into its record.
func newRecord(kind string, job *Job, br *BlockResult) *BlockRecord {
	rec := &BlockRecord{Block: job.Block, Kind: kind, Cfg: job.Cfg, Seeds: job.Seeds, MinFailing: br.MinFailing}
	out := make([]byte, len(br.Verdicts))
	perProto := map[string]OutcomeCounts{}
	for i, v := range br.Verdicts {
		out[i] = outcomeByte(v.Outcome)
		pc := perProto[v.Protocol]
		pc.add(v.Outcome, 1)
		perProto[v.Protocol] = pc
		if v.MeshCompared {
			rec.MeshCompared++
		}
	}
	rec.Outcomes = string(out)
	rec.PerProtocol = perProto
	return rec
}

// writeCorpus persists the block's shrunk failing seed, if any. Writes
// are idempotent (content-addressed).
func (co *coordinator) writeCorpus(rec *BlockRecord) error {
	if co.opt.Corpus == "" || rec.MinFailing == nil {
		return nil
	}
	e := failingEntry(rec.MinFailing)
	name, isNew, err := WriteEntry(co.opt.Corpus, e)
	if err == nil && isNew {
		co.logf("corpus: new failing entry %s (block %d, seed %d)", name, rec.Block, e.Seed)
	}
	return err
}

// failingEntry builds a reproducer's corpus entry; buildSummary derives
// the same entry to count unique corpus files without consulting the
// disk.
func failingEntry(fs *FailingSeed) *Entry {
	return &Entry{
		Kind: KindFailing, Seed: fs.Seed, Cfg: fs.Cfg, Protocol: fs.Protocol,
		Outcome: fs.Outcome, Signature: fs.Signature,
		ReplayConfirmed: fs.ReplayConfirmed,
	}
}

func outcomeByte(o string) byte {
	switch o {
	case OutcomeDegraded:
		return 'd'
	case OutcomeFailed:
		return 'f'
	}
	return 'p'
}

func (co *coordinator) logf(format string, args ...any) {
	if co.opt.Log == nil {
		return
	}
	fmt.Fprintf(co.opt.Log, "soak: "+format+"\n", args...)
}

// buildSummary folds the committed records into the summary. It reads
// only the records and the options — never the clock or the corpus
// directory — so two soaks of the same options produce the
// byte-identical document.
func buildSummary(blocks []BlockRecord, opt Options) *Summary {
	s := &Summary{
		Version: 1,
		Config: SummaryConfig{
			BaseSeed:     opt.BaseSeed,
			SeedBudget:   opt.SeedBudget,
			DurationMode: opt.SeedBudget <= 0,
			Regime:       opt.Regime,
			Protocols:    opt.Protocols,
			Strict:       opt.Strict,
			Transport:    opt.Transport,
		},
		PerProtocol: map[string]OutcomeCounts{},
	}
	failFiles := map[string]bool{}
	for i := range blocks {
		rec := &blocks[i]
		s.Blocks++
		if rec.Kind == blockKindCorpus {
			s.CorpusBlocks++
		} else {
			s.BaseBlocks++
		}
		for j := 0; j < len(rec.Outcomes); j++ {
			s.Outcomes.add(outcomeName(rec.Outcomes[j]), 1)
		}
		s.SeedsRun += int64(len(rec.Outcomes))
		s.MeshCompared += int64(rec.MeshCompared)
		for proto, pc := range rec.PerProtocol {
			agg := s.PerProtocol[proto]
			agg.addCounts(pc)
			s.PerProtocol[proto] = agg
		}
		if rec.MinFailing != nil {
			s.Failing = append(s.Failing, FailingRecord{
				Block: rec.Block, Kind: rec.Kind,
				Shrunk: rec.MinFailing.ReplayConfirmed, Seed: *rec.MinFailing,
			})
			if !rec.MinFailing.ReplayConfirmed {
				s.UnshrunkFailures++
			}
		}
		// Re-derive corpus filenames from the record so the counter does
		// not depend on what was already on disk (re-writing an existing
		// file reports "not new").
		if opt.Corpus != "" && rec.MinFailing != nil {
			if name, err := failingEntry(rec.MinFailing).Filename(); err == nil {
				failFiles[name] = true
			}
		}
	}
	s.CorpusFailingWritten = len(failFiles)
	return s
}

func outcomeName(b byte) string {
	switch b {
	case 'd':
		return OutcomeDegraded
	case 'f':
		return OutcomeFailed
	}
	return OutcomePass
}
