package tensor

import (
	"encoding/binary"
	"math/bits"
)

// Byte-scan and byte-fill kernels for the DRAM simulator's two hot
// inner loops: the victim-row flip scan (find bytes deviating from the
// fill polarity) and hammer-disturbance application (materialize a row
// as a constant fill pattern). Both have AVX2 assembly implementations
// selected behind the same CPUID gate as the GEMM kernels
// (bytes_amd64.go); the word-wise Go twins below are bit-identical:
// IndexMismatchByte's result is the well-defined first deviating index
// and FillBytes' result is the fully overwritten buffer, so portable
// and vectorized paths cannot diverge.

// indexMismatchImpl and fillBytesImpl are the runtime-selected kernel
// entry points (portable by default, AVX2 on capable amd64).
var (
	indexMismatchImpl = indexMismatchGo
	fillBytesImpl     = fillBytesGo
)

// IndexMismatchByte returns the index of the first byte of b that
// differs from v, or -1 when every byte equals v. A clean 4 KB page —
// the overwhelming majority during templating readback — costs one
// compare per 32-byte lane on AVX2 (one per 8-byte word portably).
func IndexMismatchByte(b []byte, v byte) int {
	if len(b) == 0 {
		return -1
	}
	return indexMismatchImpl(b, v)
}

// FillBytes overwrites b with the byte v — the disturb-path twin of
// IndexMismatchByte, used when a sparse DRAM row materializes its fill
// pattern.
func FillBytes(b []byte, v byte) {
	if len(b) == 0 {
		return
	}
	fillBytesImpl(b, v)
}

// indexMismatchGo is the portable word-wise scan.
func indexMismatchGo(b []byte, v byte) int {
	w := uint64(v) * 0x0101010101010101
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if x := binary.LittleEndian.Uint64(b[i:]) ^ w; x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for ; i < len(b); i++ {
		if b[i] != v {
			return i
		}
	}
	return -1
}

// fillBytesGo is the portable word-wise fill.
func fillBytesGo(b []byte, v byte) {
	w := uint64(v) * 0x0101010101010101
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], w)
	}
	for ; i < len(b); i++ {
		b[i] = v
	}
}
