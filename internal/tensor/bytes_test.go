package tensor

import (
	"bytes"
	"testing"
)

// naiveIndexMismatch is the scalar reference both kernels must match.
func naiveIndexMismatch(b []byte, v byte) int {
	for i := range b {
		if b[i] != v {
			return i
		}
	}
	return -1
}

// mismatchCases builds buffers exercising lane boundaries: clean,
// mismatch at every alignment class, mismatch in the scalar tail.
func mismatchCases() []struct {
	buf []byte
	v   byte
} {
	rng := NewRNG(3)
	var cases []struct {
		buf []byte
		v   byte
	}
	for _, n := range []int{0, 1, 7, 8, 31, 32, 33, 63, 64, 100, 4096} {
		for _, v := range []byte{0x00, 0xFF, 0x5A} {
			clean := make([]byte, n)
			FillBytes(clean, v)
			cases = append(cases, struct {
				buf []byte
				v   byte
			}{clean, v})
			for _, at := range []int{0, n / 3, n - 1} {
				if at < 0 || at >= n {
					continue
				}
				dirty := make([]byte, n)
				for i := range dirty {
					dirty[i] = v
				}
				dirty[at] = v ^ byte(1<<uint(rng.Intn(8)))
				cases = append(cases, struct {
					buf []byte
					v   byte
				}{dirty, v})
			}
		}
	}
	return cases
}

// TestIndexMismatchMatchesNaive checks the selected kernel — and, when
// AVX2 was selected, the portable twin explicitly — against the scalar
// reference, so the vectorized and portable paths stay bit-identical.
func TestIndexMismatchMatchesNaive(t *testing.T) {
	for _, c := range mismatchCases() {
		want := naiveIndexMismatch(c.buf, c.v)
		if got := IndexMismatchByte(c.buf, c.v); got != want {
			t.Fatalf("IndexMismatchByte(len=%d, v=%#x) = %d, want %d", len(c.buf), c.v, got, want)
		}
		if got := indexMismatchGo(c.buf, c.v); got != want {
			t.Fatalf("indexMismatchGo(len=%d, v=%#x) = %d, want %d", len(c.buf), c.v, got, want)
		}
		if accelerated {
			if len(c.buf) == 0 {
				continue
			}
			if got := indexMismatchAVX2(c.buf, c.v); got != want {
				t.Fatalf("indexMismatchAVX2(len=%d, v=%#x) = %d, want %d", len(c.buf), c.v, got, want)
			}
		}
	}
}

// TestFillBytesAllSizes checks fills across lane boundaries on both
// implementations, including that bytes beyond the slice stay intact.
func TestFillBytesAllSizes(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 31, 32, 33, 63, 64, 100, 4096} {
		for _, v := range []byte{0x00, 0xFF, 0xA5} {
			want := make([]byte, n)
			for i := range want {
				want[i] = v
			}
			backing := make([]byte, n+8)
			for i := range backing {
				backing[i] = 0x11
			}
			FillBytes(backing[:n], v)
			if !bytes.Equal(backing[:n], want) {
				t.Fatalf("FillBytes(len=%d, v=%#x) wrote wrong bytes", n, v)
			}
			for _, tail := range backing[n:] {
				if tail != 0x11 {
					t.Fatalf("FillBytes(len=%d) overwrote past the slice", n)
				}
			}
			got := make([]byte, n)
			fillBytesGo(got, v)
			if !bytes.Equal(got, want) {
				t.Fatalf("fillBytesGo(len=%d, v=%#x) wrote wrong bytes", n, v)
			}
		}
	}
}

// BenchmarkIndexMismatch scans one clean 4 KB page per op — the
// dominant case of the templating readback loop.
func BenchmarkIndexMismatch(b *testing.B) {
	page := make([]byte, 4096)
	FillBytes(page, 0xFF)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		if IndexMismatchByte(page, 0xFF) != -1 {
			b.Fatal("unexpected mismatch")
		}
	}
}

// BenchmarkIndexMismatchGo is the portable twin for the speedup ratio.
func BenchmarkIndexMismatchGo(b *testing.B) {
	page := make([]byte, 4096)
	FillBytes(page, 0xFF)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		if indexMismatchGo(page, 0xFF) != -1 {
			b.Fatal("unexpected mismatch")
		}
	}
}

// BenchmarkFillBytes fills one 4 KB page per op.
func BenchmarkFillBytes(b *testing.B) {
	page := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		FillBytes(page, byte(i))
	}
}
