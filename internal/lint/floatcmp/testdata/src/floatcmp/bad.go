package floatcmp

// Violations: every comparison here must be reported.

func badEq(a, b float64) bool {
	return a == b // want "exact == comparison of floating-point values"
}

func badNeq(a, b float64) bool {
	return a != b // want "exact != comparison of floating-point values"
}

func badZero(w float64) bool {
	return w == 0 // want "exact == comparison of floating-point values"
}

type wrapped float64

func badNamed(a, b wrapped) bool {
	return a != b // want "exact != comparison of floating-point values"
}

func badSwitch(x float64) int {
	switch x {
	case 1.0: // want "switch-case on a floating-point value"
		return 1
	case 2.0: // want "switch-case on a floating-point value"
		return 2
	}
	return 0
}

// staleAllow orders rather than compares for equality, so its
// suppression covers no finding and is reported in its place. The
// tolconst suppression is not checked: tolconst is not in this run.
func staleAllow(a, b float64) bool {
	if a < b { //lint:allow floatcmp: nothing to suppress here // want "//lint:allow floatcmp suppresses no floatcmp finding here; remove it"
		return true
	}
	return a > 1e-9 //lint:allow tolconst: another analyzer's suppression
}
