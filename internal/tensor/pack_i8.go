package tensor

import "math"

// Right-hand sides of the int8 GEMM. GemmI8PackedA never sees B as a
// matrix: it asks a PackerI8 for one kc×nc slab at a time, in the NR-
// column int16 k-pair panel layout its micro-kernel reads. A plain
// row-major matrix (matrixI8) packs row pairs; a convolution (ConvI8)
// packs its panels straight from the padded int8 activation planes,
// so the im2col matrix is never built (DESIGN §13).

// PackerI8 supplies the k×n right-hand side of GemmI8PackedA.
type PackerI8 interface {
	// packB packs rows [p0, p0+kc) and columns [j0, j0+nc) into
	// NR-column panels of int16 k-pairs (the packBI8Panels layout):
	// columns past nc and the odd row of a final odd pair are zero.
	// It must be safe for concurrent calls on disjoint dst.
	packB(dst []int16, p0, kc, j0, nc int)
}

// matrixI8 is a row-major k×n int8 matrix b.
type matrixI8 struct {
	b []int8
	n int
}

func (m matrixI8) packB(dst []int16, p0, kc, j0, nc int) {
	packBI8Panels(dst, m.b, m.n, p0, kc, j0, nc)
}

// packConvPanelFast, when non-nil (amd64 with AVX2), packs npairs
// k-pairs of one 16-column panel whose two 8-column halves each lie in
// one output row: row offset off reads bytes lo+off+stride·c and
// hi+off+stride·c for c = 0…7, stride 1 or 2. At stride 2 it loads 16
// bytes per half and row, one past the last it uses.
var packConvPanelFast func(dst *int16, lo, hi *int8, offs *int32, npairs, stride int)

// convI8 is a convolution's lowered input read in place (implicit
// im2col). Row r = (ch·kh + ky)·kw + kx and column
// j = (i·oh + oy)·ow + ox of the lowered matrix hold
// x[rowOff[r] + colOff(j)], with rowOff[r] = ch·n·plane + ky·pw + kx
// and colOff(j) = i·plane + oy·stride·pw + ox·stride.
type convI8 struct {
	x      []int8
	plane  int // ph·pw
	pw     int
	stride int
	oh, ow int
	rowOff []int32
}

// ConvI8 returns the right-hand side of a convolution over the int8
// activation planes x: channel ch of sample i is the ph×pw plane at
// x[(ch·n + i)·ph·pw:], already zero-padded on every side by the
// conv's padding, so every lowered element is a valid index and
// padding reads a zero code. The kernel is kh×kw at stride stride; the
// lowered matrix has c·kh·kw rows and n·oh·ow columns with
// oh = (ph − kh)/stride + 1 and ow = (pw − kw)/stride + 1. A 1×1
// stride-1 kernel lowers to the planes themselves, a plain matrix.
// Row offsets are int32, so the planes may hold at most 2³¹ − 1 codes.
func ConvI8(x []int8, c, n, ph, pw, kh, kw, stride int) PackerI8 {
	plane := ph * pw
	if kh == 1 && kw == 1 && stride == 1 {
		return matrixI8{b: x[:c*n*plane], n: n * plane}
	}
	if c*n*plane > math.MaxInt32 {
		panic("tensor: ConvI8 planes exceed int32 offsets")
	}
	s := &convI8{
		x:      x[:c*n*plane],
		plane:  plane,
		pw:     pw,
		stride: stride,
		oh:     (ph-kh)/stride + 1,
		ow:     (pw-kw)/stride + 1,
		rowOff: make([]int32, 0, c*kh*kw),
	}
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				s.rowOff = append(s.rowOff, int32(ch*n*plane+ky*pw+kx))
			}
		}
	}
	return s
}

// convCol is a lowered column's position (sample i, output row oy,
// output column ox).
type convCol struct{ i, oy, ox int }

// col returns column j's position.
func (s *convI8) col(j int) convCol {
	return convCol{i: j / (s.oh * s.ow), oy: j / s.ow % s.oh, ox: j % s.ow}
}

// step advances p by k columns.
func (s *convI8) step(p convCol, k int) convCol {
	p.ox += k
	for p.ox >= s.ow {
		p.ox -= s.ow
		if p.oy++; p.oy == s.oh {
			p.oy = 0
			p.i++
		}
	}
	return p
}

// off returns column p's offset colOff into the planes.
func (s *convI8) off(p convCol) int {
	return p.i*s.plane + (p.oy*s.pw+p.ox)*s.stride
}

func (s *convI8) packB(dst []int16, p0, kc, j0, nc int) {
	nr := gemmI8NR
	kc2 := (kc + 1) / 2
	rows := s.rowOff[p0 : p0+kc]
	x := s.x
	var co [gemmI8MaxNR]int
	cur := s.col(j0)
	for jr := 0; jr < nc; jr, cur = jr+nr, s.step(cur, nr) {
		d := dst[(jr/nr)*kc2*2*nr:][:kc2*2*nr]
		cols := min(nr, nc-jr)
		if cols == 16 && s.stride <= 2 && packConvPanelFast != nil {
			mid := s.step(cur, 8)
			lo, hi := s.off(cur), s.off(mid)
			if cur.ox+8 <= s.ow && mid.ox+8 <= s.ow && hi+int(rows[kc-1])+16 <= len(x) {
				full := kc / 2
				if full > 0 {
					packConvPanelFast(&d[0], &x[lo], &x[hi], &rows[0], full, s.stride)
				}
				if kc&1 == 1 {
					e := d[full*32:][:32]
					r0 := int(rows[kc-1])
					for c := 0; c < 8; c++ {
						e[2*c] = int16(x[r0+lo+c*s.stride])
						e[2*c+1] = 0
						e[16+2*c] = int16(x[r0+hi+c*s.stride])
						e[16+2*c+1] = 0
					}
				}
				continue
			}
		}
		for c, p := 0, cur; c < cols; c, p = c+1, s.step(p, 1) {
			co[c] = s.off(p)
		}
		for p2 := 0; p2 < kc2; p2++ {
			e := d[p2*2*nr:][:2*nr]
			r0 := int(rows[2*p2])
			if 2*p2+1 < kc {
				r1 := int(rows[2*p2+1])
				for c := 0; c < cols; c++ {
					e[2*c] = int16(x[r0+co[c]])
					e[2*c+1] = int16(x[r1+co[c]])
				}
			} else {
				for c := 0; c < cols; c++ {
					e[2*c] = int16(x[r0+co[c]])
					e[2*c+1] = 0
				}
			}
			clear(e[2*cols:])
		}
	}
}
