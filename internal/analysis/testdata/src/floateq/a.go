// Fixture for the floateq analyzer: exact float comparison discipline
// in the geometry packages.
package floateq

type point []float64

func exactCompare(a, b float64) bool {
	return a == b // want `exact == on computed float64 values`
}

func exactNegCompare(a, b float64) bool {
	return a != b // want `exact != on computed float64 values`
}

func componentCompare(v, w point) bool {
	return v[0] == w[0] // want `exact == on computed float64 values`
}

func zeroGuard(denom float64) bool {
	return denom == 0 // ok: comparison against a constant is a deliberate exactness claim
}

func oneClamp(alpha float64) bool {
	return alpha != 1.0 // ok: constant comparison
}

func intCompare(a, b int) bool {
	return a == b // ok: integers compare exactly
}

func approxEqual(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	if d == 0 { // ok: constant comparison inside a tolerance helper anyway
		return true
	}
	return d <= tol
}

// withinEq is a designated equality helper (name suffix "Eq"): its
// whole job is to define equality, so exact comparison is allowed.
func withinEq(a, b float64) bool {
	return a == b // ok: tolerance/equality helper body is exempt
}

func marginCompare(lo, hi float64) bool {
	margin := hi * 0.5
	return lo == hi+margin // want `exact == on computed float64 values`
}
