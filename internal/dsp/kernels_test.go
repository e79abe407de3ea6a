package dsp

import "testing"

func TestFIRRejectsEmptyTaps(t *testing.T) {
	cm := DefaultCostModel()
	if _, err := FIRCycles(1, 0, cm); err == nil {
		t.Error("empty taps must be rejected")
	}
	if _, err := FIRCycles(-1, 3, cm); err == nil {
		t.Error("negative n must be rejected")
	}
}

func TestKernelCyclesScale(t *testing.T) {
	cm := DefaultCostModel()
	small, _ := FIRCycles(256, 16, cm)
	big, _ := FIRCycles(512, 16, cm)
	if big <= small {
		t.Error("FIR cycles must grow with signal length")
	}
	i1, _ := IIRCycles(100, 1, cm)
	i2, _ := IIRCycles(100, 4, cm)
	if i2 <= i1 {
		t.Error("IIR cycles must grow with cascade depth")
	}
}
