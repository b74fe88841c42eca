package soak

// The soak summary: a stable-JSON aggregate computed purely from the
// committed block records. Nothing timing-dependent appears in it, so
// two soaks of the same options summarize byte-identically, and nothing
// depends on the worker count, so a seed-budget soak summarizes the
// same at any Options.Shards.

import (
	"encoding/json"
	"fmt"
	"io"

	"relaxedbvc/internal/metrics"
)

// OutcomeCounts partitions seeds by verdict.
type OutcomeCounts struct {
	Pass     int64 `json:"pass"`
	Degraded int64 `json:"degraded"`
	Failed   int64 `json:"failed"`
}

func (c *OutcomeCounts) add(o string, n int64) {
	switch o {
	case OutcomePass:
		c.Pass += n
	case OutcomeDegraded:
		c.Degraded += n
	case OutcomeFailed:
		c.Failed += n
	}
}

func (c *OutcomeCounts) addCounts(o OutcomeCounts) {
	c.Pass += o.Pass
	c.Degraded += o.Degraded
	c.Failed += o.Failed
}

// total is the seed count.
func (c OutcomeCounts) total() int64 { return c.Pass + c.Degraded + c.Failed }

// FailingRecord is one failing block's reproducer in the summary.
type FailingRecord struct {
	Block int    `json:"block"`
	Kind  string `json:"kind"`
	// Shrunk reports the reproducer was minimized and replay-confirmed;
	// Gate fails on any unshrunk failure.
	Shrunk bool        `json:"shrunk"`
	Seed   FailingSeed `json:"seed"`
}

// SummaryConfig echoes the configuration the soak ran under.
type SummaryConfig struct {
	BaseSeed     int64    `json:"base_seed"`
	SeedBudget   int64    `json:"seed_budget"`
	DurationMode bool     `json:"duration_mode,omitempty"`
	Regime       string   `json:"regime"`
	Protocols    []string `json:"protocols,omitempty"`
	Strict       bool     `json:"strict"`
	Transport    string   `json:"transport"`
}

// Summary is the soak's stable-JSON result document.
type Summary struct {
	Version int           `json:"version"`
	Config  SummaryConfig `json:"config"`

	// Seed counters (raw outcome classes: Strict decides only which
	// seeds are shrunk, never what counts as failed).
	SeedsRun int64         `json:"seeds_run"`
	Outcomes OutcomeCounts `json:"outcomes"`
	// MeshCompared counts seeds whose decisions were cross-checked
	// against the channel-mesh backend (mesh soaks only).
	MeshCompared int64 `json:"mesh_compared,omitempty"`

	// Block counters by kind.
	Blocks       int `json:"blocks"`
	CorpusBlocks int `json:"corpus_blocks"`
	BaseBlocks   int `json:"base_blocks"`

	// PerProtocol aggregates outcomes by protocol name.
	PerProtocol map[string]OutcomeCounts `json:"per_protocol"`

	// Failing lists each failing block's shrunk reproducer, in block
	// order. UnshrunkFailures counts reproducers whose replay
	// confirmation failed.
	Failing          []FailingRecord `json:"failing,omitempty"`
	UnshrunkFailures int             `json:"unshrunk_failures"`

	// CorpusFailingWritten counts distinct reproducer files (0 when no
	// corpus directory is configured).
	CorpusFailingWritten int `json:"corpus_failing_written"`
}

// Encode renders the stable serialized form (indented JSON, sorted map
// keys, trailing newline).
func (s *Summary) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return nil, fmt.Errorf("%w: marshal summary: %v", ErrSoak, err)
	}
	return append(data, '\n'), nil
}

// Render writes a one-screen human summary.
func (s *Summary) Render(w io.Writer) {
	fmt.Fprintf(w, "soak: %d seeds — %d passed, %d degraded, %d failed (strict=%v, transport=%s)\n",
		s.SeedsRun, s.Outcomes.Pass, s.Outcomes.Degraded, s.Outcomes.Failed, s.Config.Strict, s.Config.Transport)
	fmt.Fprintf(w, "blocks: %d (%d corpus, %d base)\n", s.Blocks, s.CorpusBlocks, s.BaseBlocks)
	if s.MeshCompared > 0 {
		fmt.Fprintf(w, "mesh-compared: %d seeds matched the simulation bit-for-bit\n", s.MeshCompared)
	}
	if len(s.Failing) > 0 {
		fmt.Fprintf(w, "failing blocks: %d (%d unshrunk)\n", len(s.Failing), s.UnshrunkFailures)
		for _, f := range s.Failing {
			fmt.Fprintf(w, "  block %-5d seed %-20d %-13s %-8s shrunk=%v\n",
				f.Block, f.Seed.Seed, f.Seed.Protocol, f.Seed.Outcome, f.Shrunk)
		}
	}
	if s.CorpusFailingWritten > 0 {
		fmt.Fprintf(w, "corpus: +%d failing entries\n", s.CorpusFailingWritten)
	}
}

// Gate is the soak's pass/fail rule: it fails on any seed whose outcome
// is failed, and on any unshrunk failure (a reproducer that did not
// replay to its signature is a nondeterminism bug or an untrustworthy
// corpus entry). Shrunk, replay-confirmed degradations of a strict
// out-of-model soak pass: they become corpus regression entries.
func (s *Summary) Gate() error {
	for _, f := range s.Failing {
		if !f.Shrunk {
			return fmt.Errorf("%w: block %d seed %d (%s, %s) failed but its replay did not reproduce the signature",
				ErrSoak, f.Block, f.Seed.Seed, f.Seed.Protocol, f.Seed.Outcome)
		}
	}
	if s.Outcomes.Failed > 0 {
		return fmt.Errorf("%w: %d of %d seeds failed", ErrSoak, s.Outcomes.Failed, s.SeedsRun)
	}
	return nil
}

// publishMetrics folds one freshly committed block into the library's
// cumulative metrics registry (expvar/pprof visibility for a running
// soak; the summary itself is computed from the block records).
// Counter names are snake_case literals;
// the metrics registry panics on any other name.
func publishMetrics(rec *BlockRecord) {
	metrics.DefaultCounter("soak_blocks_total").Inc()
	var c OutcomeCounts
	for _, p := range rec.PerProtocol {
		c.addCounts(p)
	}
	metrics.DefaultCounter("soak_seeds_total").Add(c.total())
	metrics.DefaultCounter("soak_pass_total").Add(c.Pass)
	metrics.DefaultCounter("soak_degraded_total").Add(c.Degraded)
	metrics.DefaultCounter("soak_failed_total").Add(c.Failed)
	metrics.DefaultCounter("soak_mesh_compared_total").Add(int64(rec.MeshCompared))
	if rec.MinFailing != nil && !rec.MinFailing.ReplayConfirmed {
		metrics.DefaultCounter("soak_unshrunk_failures_total").Inc()
	}
	for name, pc := range rec.PerProtocol {
		protoCounter(name).Add(pc.total())
	}
}

// protoCounter maps a protocol name onto its literal-named per-protocol
// soak counter. The protocol set is closed, so the mapping stays a
// switch over literals rather than a computed name: protocol names
// carry dashes, which the registry's snake_case check rejects.
func protoCounter(proto string) *metrics.Counter {
	switch proto {
	case "delta-relaxed":
		return metrics.DefaultCounter("soak_runs_delta_relaxed_total")
	case "exact":
		return metrics.DefaultCounter("soak_runs_exact_total")
	case "k-relaxed":
		return metrics.DefaultCounter("soak_runs_k_relaxed_total")
	case "scalar":
		return metrics.DefaultCounter("soak_runs_scalar_total")
	case "convex":
		return metrics.DefaultCounter("soak_runs_convex_total")
	case "iterative":
		return metrics.DefaultCounter("soak_runs_iterative_total")
	case "async":
		return metrics.DefaultCounter("soak_runs_async_total")
	case "k1-async":
		return metrics.DefaultCounter("soak_runs_k1_async_total")
	}
	return metrics.DefaultCounter("soak_runs_other_total")
}
