package splitmix

import "testing"

// TestPinnedOutputs pins the first outputs to the values the stream's
// earlier per-package copies produced: the side-channel mixer
// (Mix(x+Gamma)), the weak-cell generator (a Stream started at a mixed
// key) and the serving simulator's arrival stream (a Stream started at
// a raw seed). Any drift here would move every weak-cell layout, fault
// draw and simulated timeline in the repo.
func TestPinnedOutputs(t *testing.T) {
	for _, c := range []struct{ x, mix, sidechan uint64 }{
		{0, 0x0, 0xe220a8397b1dcdaf},
		{1, 0x5692161d100b05e5, 0x910a2dec89025cc1},
		{42, 0xa759ea27d4727622, 0xbdd732262feb6e95},
	} {
		if got := Mix(c.x); got != c.mix {
			t.Errorf("Mix(%d) = %#x, want %#x", c.x, got, c.mix)
		}
		if got := Mix(c.x + Gamma); got != c.sidechan {
			t.Errorf("Mix(%d+Gamma) = %#x, want %#x", c.x, got, c.sidechan)
		}
	}

	cell := Stream(Mix(12345))
	if a, b, f := cell.Next(), cell.Next(), cell.Float64(); a != 0x7fb6fc5796d17578 || b != 0x754815eddc74663e || f != 0.538326766414223 {
		t.Errorf("keyed stream = %#x %#x %v", a, b, f)
	}
	arrivals := Stream(7)
	if a, b, f := arrivals.Next(), arrivals.Next(), arrivals.Float64(); a != 0x63cbe1e459320dd7 || b != 0x44c3cd7f43c661c || f != 0.9007606806068834 {
		t.Errorf("seeded stream = %#x %#x %v", a, b, f)
	}
}
