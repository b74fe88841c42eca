package consensus

import (
	"context"
	"fmt"

	"relaxedbvc/internal/transport"
	"relaxedbvc/internal/vec"
)

// RunK1Async runs 1-relaxed approximate BVC in an asynchronous system
// via the Section 5.3 reduction: one independent scalar (d = 1)
// approximate consensus instance per coordinate, each a ModeExact
// RunAsync. For d = 1 the exact-validity bound (d+2)f+1 = 3f+1
// coincides with the reliable-broadcast requirement, so n >= 3f+1
// suffices for every vector dimension — the k = 1 entry of the paper's
// bounds table. Like RunAsync, a real plane refuses it.
//
// The output satisfies 1-relaxed validity: every coordinate of every
// honest output lies in the interval spanned by the non-faulty inputs'
// corresponding coordinates.
func RunK1Async(ctx context.Context, plane transport.Plane, cfg *AsyncConfig) (*AsyncResult, error) {
	if err := validateAsync(cfg); err != nil {
		return nil, err
	}
	out := &AsyncResult{
		Outputs: make([]vec.V, cfg.N),
		Delta:   make([]float64, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		out.Outputs[i] = vec.New(cfg.D)
	}
	for j := 0; j < cfg.D; j++ {
		sub := &AsyncConfig{
			N: cfg.N, F: cfg.F, D: 1,
			Inputs:   make([]vec.V, cfg.N),
			Rounds:   cfg.Rounds,
			Mode:     ModeExact,
			Schedule: cfg.Schedule,
			Faults:   cfg.Faults,
			Trace:    cfg.Trace,
		}
		for i, v := range cfg.Inputs {
			sub.Inputs[i] = vec.Of(v[j])
		}
		if cfg.Byzantine != nil {
			sub.Byzantine = make(map[int]*AsyncByzantine, len(cfg.Byzantine))
			for id, b := range cfg.Byzantine {
				nb := &AsyncByzantine{
					SilentFrom:  b.SilentFrom,
					CorruptFrom: b.CorruptFrom,
					MuteRBC:     b.MuteRBC,
				}
				if b.Input != nil {
					nb.Input = vec.Of(b.Input[j])
				}
				sub.Byzantine[id] = nb
			}
		}
		res, err := RunAsync(ctx, plane, sub)
		if err != nil {
			return nil, fmt.Errorf("consensus: coordinate %d: %w", j, err)
		}
		for i := 0; i < cfg.N; i++ {
			if res.Outputs[i] == nil {
				out.Outputs[i] = nil
				continue
			}
			if out.Outputs[i] != nil {
				out.Outputs[i][j] = res.Outputs[i][0]
			}
		}
		out.Steps += res.Steps
		out.Messages += res.Messages
		out.Faults.Add(res.Faults)
	}
	return out, nil
}
