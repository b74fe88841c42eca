package soak

// The coordinator: plans blocks, runs them one at a time on the batch
// engine, and commits each result in block order. Planning is a pure
// function of the options and the committed history — every scheduling
// decision (coverage novelty, mutation-parent consumption, corpus
// writes, the summary) is taken at commit time from committed state
// only, and RunBlock's verdicts do not depend on its worker count — so
// two soaks of the same options summarize byte-identically.
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

	"relaxedbvc/internal/simtest"
)

// Block kinds recorded in each BlockRecord.
const (
	blockKindCorpus   = "corpus"
	blockKindBase     = "base"
	blockKindMutation = "mutation"
)

// The mutation and corpus bounds: each mutation parent derives
// mutPerParent children, one wave consumes at most maxParentsPerWave
// parents, and a soak persists at most maxInteresting novel-feature
// corpus entries (consumed in commit order, so deterministically).
const (
	mutPerParent      = 8
	maxParentsPerWave = 64
	maxInteresting    = 256
)

// Options configures a soak run.
type Options struct {
	// SeedBudget is the number of fresh seeds to run (corpus replays are
	// on top). Exactly this many seeds run when the soak completes.
	SeedBudget int64
	// Duration, when positive, runs epochs of base seeds plus mutation
	// waves until the wall-clock budget is spent. Exactly one of
	// SeedBudget and Duration must be set.
	Duration time.Duration
	// BaseSeed is folded into every generated instance
	// (simtest.FuzzConfig.BaseSeed): two soaks with different base seeds
	// explore disjoint instance populations from the same seed indices.
	BaseSeed int64
	// Shards is the batch engine's worker count for each block (default
	// 1). It also keys the summary's per-shard counters: block b belongs
	// to lane b mod Shards.
	Shards int
	// BlockSize is the number of seeds per block (default 256).
	BlockSize int
	// MutFrac is the fraction of SeedBudget reserved for
	// coverage-guided mutation children; 0 runs base seeds only (the
	// bvcsoak flag defaults to 0.25). Unspent mutation budget becomes
	// extra base blocks, so SeedsRun always equals SeedBudget.
	MutFrac float64
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
}

// normalize applies defaults and validates, returning the effective
// options.
func (o Options) normalize() (Options, error) {
	if (o.SeedBudget > 0) == (o.Duration > 0) {
		return o, fmt.Errorf("%w: need exactly one of a seed budget and a duration", ErrConfig)
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 256
	}
	if o.MutFrac < 0 || o.MutFrac >= 1 {
		return o, fmt.Errorf("%w: MutFrac %v outside [0,1)", ErrConfig, o.MutFrac)
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

// BlockRecord is one committed block: the unit the planner's state and
// the summary are derived from.
type BlockRecord struct {
	Block int
	// Kind is "corpus", "base" or "mutation".
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
	// Parents are the seeds that hit a coverage feature never seen
	// before this block committed, in seed order — the mutation
	// scheduler's inputs and the corpus's "interesting" entries.
	Parents []ParentRef
	// MinFailing is the block's shrunk reproducer, if any seed failed.
	MinFailing *FailingSeed
}

// ParentRef is one novel-feature first-hitter: everything the mutation
// scheduler needs to derive focused children, and everything a corpus
// "interesting" entry needs to replay.
type ParentRef struct {
	Seed int64
	// Protocol and Regime pin the child generation config to the
	// configuration that produced the novelty (Regime is the effective
	// regime, with "mixed" already resolved by seed parity).
	Protocol string
	Regime   string
	// Feature is the novel coverage key this seed hit first.
	Feature string
	// Outcome/Signature record the run's classification (Signature
	// empty for passing runs).
	Outcome   string
	Signature string
}

// coordinator is one soak run's mutable state.
type coordinator struct {
	opt     Options
	baseCfg JobConfig

	// blocks are the committed records, in commit (= block) order.
	blocks []BlockRecord

	// Commit-derived scheduling state.
	seen            map[string]bool
	parents         []ParentRef
	parentCur       int
	interestingLeft int

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
	co := &coordinator{
		opt:             opt,
		baseCfg:         opt.baseCfg(),
		seen:            map[string]bool{},
		interestingLeft: maxInteresting,
	}
	if opt.Duration > 0 {
		co.deadline = time.Now().Add(opt.Duration)
	}
	// The corpus is snapshotted before any block runs: the soak writes
	// into the same directory.
	plan, err := corpusPlan(opt.Corpus)
	if err != nil {
		return nil, err
	}
	if err := co.runJobs(ctx, blockKindCorpus, co.packCorpus(plan)); err != nil {
		return nil, err
	}
	if opt.SeedBudget > 0 {
		err = co.planBudget(ctx)
	} else {
		err = co.planDuration(ctx)
	}
	if err != nil {
		return nil, err
	}
	return co, nil
}

// corpusPlan freezes the corpus into a replay plan: its entries
// deduplicated by (seed, config) and sorted by config key, then seed.
func corpusPlan(dir string) ([]*Entry, error) {
	entries, err := LoadCorpus(dir)
	if err != nil {
		return nil, err
	}
	seenRun := map[string]bool{}
	var plan []*Entry
	for _, e := range entries {
		key := fmt.Sprintf("%d@%s", e.Seed, e.Cfg.Key())
		if !seenRun[key] {
			seenRun[key] = true
			plan = append(plan, e)
		}
	}
	sort.Slice(plan, func(i, j int) bool {
		ki, kj := plan[i].Cfg.Key(), plan[j].Cfg.Key()
		if ki != kj {
			return ki < kj
		}
		return plan[i].Seed < plan[j].Seed
	})
	return plan, nil
}

// planBudget: one base phase sized to (1-MutFrac) of the budget, then
// mutation waves until the mutation budget is spent or no unconsumed
// parents remain, then filler base blocks for whatever is left — the
// soak always runs exactly SeedBudget fresh seeds.
func (co *coordinator) planBudget(ctx context.Context) error {
	mutBudget := int64(float64(co.opt.SeedBudget) * co.opt.MutFrac)
	baseBudget := co.opt.SeedBudget - mutBudget
	co.logf("phase base: %d seeds", baseBudget)
	if err := co.runJobs(ctx, blockKindBase, co.baseJobs(baseBudget)); err != nil {
		return err
	}
	mutLeft := mutBudget
	for wave := 1; mutLeft > 0; wave++ {
		jobs := co.planWave(&mutLeft)
		if len(jobs) == 0 {
			break
		}
		co.logf("phase mutation wave %d: %d blocks (%d mutation seeds left)", wave, len(jobs), mutLeft)
		if err := co.runJobs(ctx, blockKindMutation, jobs); err != nil {
			return err
		}
	}
	if mutLeft > 0 {
		co.logf("phase filler: %d seeds of unspent mutation budget", mutLeft)
		if err := co.runJobs(ctx, blockKindBase, co.baseJobs(mutLeft)); err != nil {
			return err
		}
	}
	return nil
}

// planDuration: epochs of a base chunk plus, unless MutFrac is 0, one
// mutation wave, until the deadline passes.
func (co *coordinator) planDuration(ctx context.Context) error {
	chunk := int64(co.opt.BlockSize) * int64(4*co.opt.Shards)
	for epoch := 1; !co.expired(); epoch++ {
		co.logf("epoch %d: %d base seeds", epoch, chunk)
		if err := co.runJobs(ctx, blockKindBase, co.baseJobs(chunk)); err != nil {
			return err
		}
		if co.opt.MutFrac == 0 {
			continue
		}
		waveBudget := int64(mutPerParent * maxParentsPerWave)
		jobs := co.planWave(&waveBudget)
		if len(jobs) == 0 {
			continue
		}
		co.logf("epoch %d: mutation wave, %d blocks", epoch, len(jobs))
		if err := co.runJobs(ctx, blockKindMutation, jobs); err != nil {
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
		for j < len(plan) && plan[j].Cfg.Key() == plan[i].Cfg.Key() && j-i < co.opt.BlockSize {
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
		n := int64(co.opt.BlockSize)
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

// planWave consumes the next run of unconsumed mutation parents (up to
// maxParentsPerWave, while budget remains) and derives their children,
// grouped into blocks by the pinned child config.
func (co *coordinator) planWave(mutLeft *int64) []*Job {
	end := co.parentCur + maxParentsPerWave
	if end > len(co.parents) {
		end = len(co.parents)
	}
	type group struct {
		cfg   JobConfig
		seeds []int64
	}
	groups := map[string]*group{}
	var order []string
	for ; co.parentCur < end && *mutLeft > 0; co.parentCur++ {
		p := co.parents[co.parentCur]
		k := int64(mutPerParent)
		if k > *mutLeft {
			k = *mutLeft
		}
		*mutLeft -= k
		cfg := co.childCfg(p)
		key := cfg.Key()
		g, ok := groups[key]
		if !ok {
			g = &group{cfg: cfg}
			groups[key] = g
			order = append(order, key)
		}
		for i := 0; i < int(k); i++ {
			g.seeds = append(g.seeds, ChildSeed(p.Seed, i))
		}
	}
	var jobs []*Job
	for _, key := range order {
		g := groups[key]
		for off := 0; off < len(g.seeds); off += co.opt.BlockSize {
			hi := off + co.opt.BlockSize
			if hi > len(g.seeds) {
				hi = len(g.seeds)
			}
			jobs = append(jobs, co.newJob(g.cfg, g.seeds[off:hi]))
		}
	}
	return jobs
}

// childCfg pins a mutation child's generation to the parent's protocol
// and effective regime, so the extra budget lands on the configuration
// that produced the novelty.
func (co *coordinator) childCfg(p ParentRef) JobConfig {
	return JobConfig{
		BaseSeed:  co.opt.BaseSeed,
		Regime:    p.Regime,
		Protocols: []string{p.Protocol},
		Strict:    co.opt.Strict,
		Transport: co.opt.Transport,
	}
}

// runJobs runs one phase's blocks in block order and commits each
// result before the next block starts. The line logged before each
// block locates a fatal runtime error, which no recover can catch, in
// the block that raised it.
func (co *coordinator) runJobs(ctx context.Context, kind string, jobs []*Job) error {
	for _, job := range jobs {
		if co.expired() {
			return nil
		}
		co.logf("block %d: %s, %d seeds from %d", job.Block, kind, len(job.Seeds), job.Seeds[0])
		br, err := RunBlock(ctx, job, WorkerOptions{Workers: co.opt.Shards})
		if ctx.Err() != nil {
			return fmt.Errorf("%w: %d blocks committed", ErrInterrupted, len(co.blocks))
		}
		if err != nil {
			return err
		}
		if err := co.commit(kind, job, br); err != nil {
			return err
		}
	}
	return nil
}

// commit turns a block result into a record: build the record (deciding
// feature novelty against committed state), persist corpus entries,
// append it to the history and publish metrics.
func (co *coordinator) commit(kind string, job *Job, br *BlockResult) error {
	rec := co.buildRecord(kind, job, br)
	if err := co.writeCorpus(rec); err != nil {
		return err
	}
	co.blocks = append(co.blocks, *rec)
	publishMetrics(rec)
	return nil
}

// buildRecord folds verdicts into a BlockRecord, updating the coverage
// map and parent queue (novel features, in seed order).
func (co *coordinator) buildRecord(kind string, job *Job, br *BlockResult) *BlockRecord {
	rec := &BlockRecord{Block: job.Block, Kind: kind, Cfg: job.Cfg, Seeds: job.Seeds, MinFailing: br.MinFailing}
	regime, _ := ParseRegime(job.Cfg.Regime) // validated by FuzzConfig before the block ran
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
		if !co.seen[v.Feature] {
			co.seen[v.Feature] = true
			rec.Parents = append(rec.Parents, ParentRef{
				Seed:      v.Seed,
				Protocol:  v.Protocol,
				Regime:    simtest.EffectiveRegime(v.Seed, regime).String(),
				Feature:   v.Feature,
				Outcome:   v.Outcome,
				Signature: v.Signature,
			})
		}
	}
	rec.Outcomes = string(out)
	rec.PerProtocol = perProto
	co.parents = append(co.parents, rec.Parents...)
	return rec
}

// writeCorpus persists the block's corpus entries: the shrunk failing
// seed, and novel-feature hitters while the interesting budget lasts.
// Writes are idempotent (content-addressed).
func (co *coordinator) writeCorpus(rec *BlockRecord) error {
	// The interesting budget is consumed per parent in commit order even
	// when persistence is off, so buildSummary can re-derive it.
	take := len(rec.Parents)
	if take > co.interestingLeft {
		take = co.interestingLeft
	}
	co.interestingLeft -= take
	if co.opt.Corpus == "" {
		return nil
	}
	if rec.MinFailing != nil {
		e := failingEntry(rec.MinFailing)
		if name, isNew, err := WriteEntry(co.opt.Corpus, e); err != nil {
			return err
		} else if isNew {
			co.logf("corpus: new failing entry %s (block %d, seed %d)", name, rec.Block, e.Seed)
		}
	}
	for _, p := range rec.Parents[:take] {
		if _, _, err := WriteEntry(co.opt.Corpus, interestingEntry(p, rec.Cfg)); err != nil {
			return err
		}
	}
	return nil
}

// failingEntry and interestingEntry build corpus entries from record
// parts; buildSummary derives the same entries to count unique corpus
// files without consulting the disk.
func failingEntry(fs *FailingSeed) *Entry {
	return &Entry{
		Kind: KindFailing, Seed: fs.Seed, Cfg: fs.Cfg, Protocol: fs.Protocol,
		Feature: fs.Feature, Outcome: fs.Outcome, Signature: fs.Signature,
		ReplayConfirmed: fs.ReplayConfirmed,
	}
}

func interestingEntry(p ParentRef, cfg JobConfig) *Entry {
	return &Entry{
		Kind: KindInteresting, Seed: p.Seed, Cfg: cfg, Protocol: p.Protocol,
		Feature: p.Feature, Outcome: p.Outcome, Signature: p.Signature,
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
			Shards:       opt.Shards,
			BlockSize:    opt.BlockSize,
			MutFrac:      opt.MutFrac,
			MutPerParent: mutPerParent,
			Regime:       opt.Regime,
			Protocols:    opt.Protocols,
			Strict:       opt.Strict,
			Transport:    opt.Transport,
		},
		PerProtocol: map[string]OutcomeCounts{},
		PerShard:    make([]OutcomeCounts, opt.Shards),
	}
	interestingLeft := maxInteresting
	failFiles := map[string]bool{}
	seedFiles := map[string]bool{}
	for i := range blocks {
		rec := &blocks[i]
		s.Blocks++
		switch rec.Kind {
		case blockKindCorpus:
			s.CorpusBlocks++
		case blockKindMutation:
			s.MutationBlocks++
			s.MutationSeeds += int64(len(rec.Outcomes))
		default:
			s.BaseBlocks++
		}
		shard := rec.Block % opt.Shards
		for j := 0; j < len(rec.Outcomes); j++ {
			o := outcomeName(rec.Outcomes[j])
			s.Outcomes.add(o, 1)
			s.PerShard[shard].add(o, 1)
		}
		s.SeedsRun += int64(len(rec.Outcomes))
		s.MeshCompared += int64(rec.MeshCompared)
		s.NovelFeatures += len(rec.Parents)
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
		// Re-derive corpus filenames from the record so the counters do
		// not depend on what was already on disk (re-writing an existing
		// file reports "not new").
		take := len(rec.Parents)
		if take > interestingLeft {
			take = interestingLeft
		}
		interestingLeft -= take
		if opt.Corpus != "" {
			if rec.MinFailing != nil {
				if name, err := failingEntry(rec.MinFailing).Filename(); err == nil {
					failFiles[name] = true
				}
			}
			for _, p := range rec.Parents[:take] {
				if name, err := interestingEntry(p, rec.Cfg).Filename(); err == nil {
					seedFiles[name] = true
				}
			}
		}
	}
	s.CorpusFailingWritten = len(failFiles)
	s.CorpusInterestingWritten = len(seedFiles)
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
