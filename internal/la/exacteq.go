package la

// ExactEq is the repo's designated exact floating-point comparator: IEEE
// == with its usual semantics (NaN is equal to nothing, including itself;
// +0 equals -0). The double-checking detectors use it where exactness is
// the point — a recomputation that reproduces the previous scaled error
// bit for bit marks Algorithm 1's false-positive rescue. Keeping the
// comparison behind a named helper makes that intent greppable, and the
// floatcmp analyzer allowlists this function while flagging raw == on
// floats everywhere else.
func ExactEq(a, b float64) bool {
	return a == b
}
