package voltsim

import "testing"

func TestNominalVoltageNeverFaults(t *testing.T) {
	c := NewCPU(0, 1)
	big := int64(0x1_0000_0000)
	if faults := c.LoopMultiply(7, big, 5000); faults != 0 {
		t.Fatalf("nominal voltage faulted %d times", faults)
	}
}

func TestDeepUndervoltFaultsLargeOperands(t *testing.T) {
	c := NewCPU(200, 2)
	big := int64(0x10_0000)
	faults := c.LoopMultiply(3, big, 20000)
	if faults == 0 {
		t.Fatal("undervolted PoC loop produced no faults")
	}
}

func TestSmallSecondOperandNeverFaults(t *testing.T) {
	c := NewCPU(300, 3)
	// |b| ≤ 0xFFFF is the documented safe region.
	if faults := c.LoopMultiply(123456789, 0xFFFF, 20000); faults != 0 {
		t.Fatalf("safe-region operand faulted %d times", faults)
	}
	if faults := c.LoopMultiply(5, -0xFFFF, 20000); faults != 0 {
		t.Fatalf("negative safe-region operand faulted %d times", faults)
	}
}

func TestQuantizedInferenceImmune(t *testing.T) {
	c := NewCPU(300, 4)
	weights := make([]int8, 256)
	acts := make([]int8, 256)
	for i := range weights {
		weights[i] = int8(i - 128)
		acts[i] = int8(127 - i)
	}
	if faults := QuantizedMACSweep(c, weights, acts); faults != 0 {
		t.Fatalf("8-bit quantized MACs faulted %d times — appendix F says zero", faults)
	}
}

func TestFaultFlipsHighProductBits(t *testing.T) {
	c := NewCPU(200, 5)
	big := int64(0x100_0000)
	for i := 0; i < 50000; i++ {
		got, faulted := c.Multiply(9, big)
		if !faulted {
			continue
		}
		diff := got ^ (9 * big)
		if diff == 0 {
			t.Fatal("fault reported but product unchanged")
		}
		if diff&0xFFFF != 0 {
			t.Fatalf("fault flipped a low bit: %x", diff)
		}
		return
	}
	t.Fatal("no fault observed in 50k multiplies")
}
