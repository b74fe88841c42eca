package consensus

import (
	"errors"

	"relaxedbvc/internal/sched"
)

// Sentinel errors returned (wrapped, with instance detail) by the Run*
// entry points. Match with errors.Is.
var (
	// ErrTooFewProcesses: n is below the minimum the protocol needs (the
	// wrapping message states the violated bound).
	ErrTooFewProcesses = errors.New("consensus: too few processes")
	// ErrTooManyFaults: f >= n, or more Byzantine behaviors were
	// configured than f allows.
	ErrTooManyFaults = errors.New("consensus: too many faulty processes")
	// ErrBadInputs: the number of input vectors differs from n, or n is
	// more than the asynchronous protocol's wire can address (65 535).
	ErrBadInputs = errors.New("consensus: wrong number of inputs")
	// ErrBadDimension: an input vector's dimension differs from D, or a
	// protocol's dimension requirement (scalar consensus needs d=1) is
	// violated.
	ErrBadDimension = errors.New("consensus: bad dimension")
	// ErrBadRounds: the configured round count is not positive, or more
	// than the asynchronous protocol's wire can number (65 536).
	ErrBadRounds = errors.New("consensus: rounds must be >= 1")
	// ErrBadNorm: the Lp norm parameter is outside the supported set
	// (p in {1, 2, +Inf} for the relaxed protocols; p >= 1 for delta*).
	ErrBadNorm = errors.New("consensus: unsupported norm")
	// ErrBadK: the relaxation parameter k is outside [1, d].
	ErrBadK = errors.New("consensus: relaxation parameter k out of range")
	// ErrEmptyIntersection: the safe region (Gamma, Psi_k, ...) the
	// protocol must pick from is empty — n is below the worst-case bound
	// for the given adversary.
	ErrEmptyIntersection = errors.New("consensus: safe intersection is empty")
	// ErrCanceled: the run was abandoned because its context was canceled
	// or its deadline expired. The context's own error is wrapped too, so
	// errors.Is(err, context.Canceled / context.DeadlineExceeded) also
	// matches.
	ErrCanceled = sched.ErrCanceled
	// ErrBadFaults: the configured sched.LinkFaults policy has invalid
	// parameters (probability outside [0,1], inverted delay bounds, ...).
	ErrBadFaults = errors.New("consensus: invalid fault policy")
	// ErrBadMessage: a wire message failed to decode (truncated,
	// length-inconsistent, or otherwise malformed). Byzantine senders
	// can produce these at will, so protocol code classifies them with
	// errors.Is rather than string matching.
	ErrBadMessage = errors.New("consensus: malformed message")
)
