package acs

// Quorum thresholds of the ACS stack, named so every comparison in the
// package traces to one audited definition (enforced by bvclint's
// quorumgate analyzer). All bounds assume the n >= 3f+1 resilience
// floor checked at construction.

// relayQuorum is the f+1 BVAL relay threshold: among f+1 votes at
// least one comes from a correct process, so relaying cannot amplify a
// purely Byzantine value.
func relayQuorum(f int) int { return f + 1 }

// termQuorum is the f+1 TERM threshold that decides an ABA instance:
// among f+1 senders of TERM(v) at least one is correct, and a correct
// process sends TERM(v) only once it decided v.
func termQuorum(f int) int { return f + 1 }

// admitQuorum is the 2f+1 bin_values admission threshold: 2f+1 votes
// contain f+1 correct ones, so every correct process eventually admits
// the same value.
func admitQuorum(f int) int { return 2*f + 1 }

// auxQuorum is the n-f wait threshold (AUX collection, BKR rule 2):
// the largest count every correct process is guaranteed to reach even
// if all f faulty processes stay silent.
func auxQuorum(n, f int) int { return n - f }

// minProcesses is the n >= 3f+1 floor reliable broadcast (and with it
// the whole ACS) requires.
func minProcesses(f int) int { return 3*f + 1 }
