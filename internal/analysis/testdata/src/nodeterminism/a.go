// Fixture for the nodeterminism analyzer: entropy sources that must
// not appear in protocol packages.
package nodeterminism

import (
	crand "crypto/rand"
	mrand "math/rand"
	"os"
	"time"
)

func wallClock() {
	t := time.Now()   // want `nondeterministic call time\.Now \(wall clock\)`
	_ = time.Since(t) // want `nondeterministic call time\.Since`
	time.Sleep(0)     // want `nondeterministic call time\.Sleep`
}

func globalRand() int {
	_ = mrand.Float64()   // want `global math/rand\.Float64 draws from the shared process-wide source`
	return mrand.Intn(10) // want `global math/rand\.Intn`
}

func explicitRNG(seed int64) int {
	rng := mrand.New(mrand.NewSource(seed)) // ok: explicit seeded source (seedflow's business)
	return rng.Intn(10)
}

func processIdentity() int {
	return os.Getpid() // want `nondeterministic call os\.Getpid \(process identity\)`
}

func cryptoEntropy(b []byte) {
	_, _ = crand.Read(b) // want `nondeterministic call crypto/rand\.Read \(non-reproducible entropy\)`
}

func deterministicTime(d time.Duration) time.Duration {
	return d * 2 // ok: arithmetic on durations is pure
}
