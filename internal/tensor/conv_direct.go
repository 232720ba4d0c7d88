package tensor

// Direct stride-1 convolution.
//
// The reference conv lowering copies each image into a K×P column
// matrix (K = inC·kh·kw taps, P = oh·ow output pixels) and runs three
// GEMMs against it: the forward output W·col, the input gradient
// Col2Im(Wᵀ·g) and the weight gradient g·colᵀ. For stride 1, every
// column-matrix row is a shifted window of a zero-padded copy of the
// image, so the kernels below read those windows in place: no K×P
// column matrix and no column gradient is built.
//
// The kernels are a drop-in replacement, not an approximation. Each
// one performs, per output element, the same floating-point operation
// sequence as the GEMM path it replaces:
//   - forward: an FMA chain over the taps in (ci, ky, kx) order
//     starting from +0, as gemmAxpyBAVX2 runs it over the column rows;
//   - input gradient: per tap an FMA chain over the output channels
//     starting from +0 (the column-gradient element gemmAxpyBAVX2
//     would produce), added into the pixel in (ky, kx) order as
//     col2imS1 adds it. Taps that fall outside the output are skipped
//     or masked to +0, which a sum that starts at +0 absorbs exactly;
//   - weight gradient: sixteen lane accumulators filled in column
//     order and reduced as dotKernel1x4Asm does, with the same scalar
//     loop for the taps past the last group of four.
//
// So the gate that picks the direct path for a direction reproduces
// exactly the dispatch that picks the GEMM kernel it mirrors
// (gemmTakesNaive/Dot/Axpy), plus the shape conditions the register
// tiles need. It depends on the shape and on the selected kernel set
// only, never on the worker count.

// DirectConv is the direct path of one stride-1 convolution geometry:
// the per-direction gates, the tap-offset tables and the edge masks.
// It is built once per layer geometry and is read-only afterwards, so
// concurrent chunks may share it.
type DirectConv struct {
	// Fwd, Data and Weight report which per-image products run
	// directly: the forward output, the input gradient and the weight
	// gradient. The rest keep the im2col + GEMM lowering.
	Fwd, Data, Weight bool

	inC, outC, h, w, kh, kw, pad int
	oh, ow, k, p                 int

	hp, wp int   // zero-padded input plane (h+2·pad)×(w+2·pad)
	xTaps  []int // per tap (ci, ky, kx): float offset into the padded input
	fwdVec [4]int

	ghp, gwp int   // zero-padded gradient plane (oh+2·(kh−1−pad))×(ow+2·(kw−1−pad))
	gTaps    []int // per tap (ky, kx): byte offset into the padded gradient, byte offset into gMask
	gMask    []uint32
}

// NewDirectConv plans the direct path for a convolution of an inC×h×w
// image by outC×inC×kh×kw weights. It returns nil when no direction
// qualifies, which includes every stride other than 1, 1×1 kernels
// (their im2col is a plain copy) and CPUs without the kernels.
func NewDirectConv(inC, outC, h, w, kh, kw, stride, pad int) *DirectConv {
	if !convDirectAsm || stride != 1 || kh*kw == 1 {
		return nil
	}
	oh, ow := h+2*pad-kh+1, w+2*pad-kw+1
	if oh <= 0 || ow <= 0 {
		return nil
	}
	k, p := inC*kh*kw, oh*ow
	d := &DirectConv{
		inC: inC, outC: outC, h: h, w: w, kh: kh, kw: kw, pad: pad,
		oh: oh, ow: ow, k: k, p: p,
	}
	// Forward: W (outC×K) · col (K×P), as MatMulInto dispatches it.
	// P % 32 keeps gemmAxpyBAVX2 off its scalar tail, and a 32-pixel
	// tile covers whole 8/16/32-wide output rows.
	d.Fwd = rowFits(ow) && p%32 == 0 &&
		!gemmTakesNaive(outC, p, k) && !gemmTakesDot(outC, p, k, 1, p) && gemmTakesAxpy(outC, p, k, 1)
	// Input gradient: Wᵀ (K×outC) · g (outC×P), as MatMulATBInto
	// dispatches it; the kernel tile is one 8/16/32-wide input row.
	d.Data = rowFits(w) && p%32 == 0 && pad < kh && pad < kw &&
		!gemmTakesNaive(k, p, outC) && !gemmTakesDot(k, p, outC, k, p) && gemmTakesAxpy(k, p, outC, 1)
	// Weight gradient: g (outC×P) · colᵀ, as MatMulABTInto dispatches
	// it. ow % 16 aligns each 16-lane block with one output row.
	d.Weight = ow%16 == 0 && !gemmTakesNaive(outC, k, p) && gemmTakesDot(outC, k, p, 1, 1)
	if !d.Fwd && !d.Data && !d.Weight {
		return nil
	}

	d.hp, d.wp = h+2*pad, w+2*pad
	d.xTaps = make([]int, 0, k)
	for ci := 0; ci < inC; ci++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				d.xTaps = append(d.xTaps, ci*d.hp*d.wp+ky*d.wp+kx)
			}
		}
	}
	if d.Fwd {
		for r := range d.fwdVec {
			d.fwdVec[r] = (8*r/ow)*d.wp + 8*r%ow
		}
	}
	if d.Data {
		d.ghp, d.gwp = oh+2*(kh-1-pad), ow+2*(kw-1-pad)
		d.gTaps = make([]int, 0, 2*kh*kw)
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				d.gTaps = append(d.gTaps, 4*((kh-1-ky)*d.gwp+kw-1-kx), 4*kx*w)
			}
		}
		d.gMask = make([]uint32, kw*w)
		for kx := 0; kx < kw; kx++ {
			for ix := 0; ix < w; ix++ {
				if ox := ix - kx + pad; ox >= 0 && ox < ow {
					d.gMask[kx*w+ix] = ^uint32(0)
				}
			}
		}
	}
	return d
}

func rowFits(n int) bool { return n == 8 || n == 16 || n == 32 }

// PadLen is the length of the zero-padded input buffer Forward and
// WeightGrad read.
func (d *DirectConv) PadLen() int { return d.inC * d.hp * d.wp }

// PadInput copies one inC×h×w image into the interior of xpad. The
// border is never written: the caller hands in a buffer whose border
// is zero (GetF32Zeroed) and may reuse it for further images.
func (d *DirectConv) PadInput(img, xpad []float32) {
	padInto(img, xpad, d.inC, d.h, d.w, d.pad, d.pad, d.hp, d.wp)
}

// GradPadLen is the length of the zero-padded gradient buffer
// InputGrad reads.
func (d *DirectConv) GradPadLen() int { return d.outC * d.ghp * d.gwp }

// PadGrad copies one outC×oh×ow output gradient into the interior of
// gpad, under the same border contract as PadInput.
func (d *DirectConv) PadGrad(g, gpad []float32) {
	padInto(g, gpad, d.outC, d.oh, d.ow, d.kh-1-d.pad, d.kw-1-d.pad, d.ghp, d.gwp)
}

func padInto(src, dst []float32, c, h, w, py, px, hp, wp int) {
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			o := (ch*hp+y+py)*wp + px
			copy(dst[o:o+w], src[(ch*h+y)*w:(ch*h+y+1)*w])
		}
	}
}

// Forward writes the outC×oh×ow convolution of a padded image (see
// PadInput) with weights w (outC×K) into out. It requires d.Fwd.
func (d *DirectConv) Forward(xpad, w, out []float32) {
	out = out[:d.outC*d.p]
	_ = xpad[d.PadLen()-1]
	_ = w[d.outC*d.k-1]
	for t := 0; t < d.p; t += 32 {
		base := (t / d.ow) * d.wp
		s0, s1 := &xpad[base+d.fwdVec[0]], &xpad[base+d.fwdVec[1]]
		s2, s3 := &xpad[base+d.fwdVec[2]], &xpad[base+d.fwdVec[3]]
		// Two output channels share each window load; an odd last
		// channel runs as its own pair, storing the same values twice.
		for oc := 0; oc < d.outC; oc += 2 {
			oc1 := min(oc+1, d.outC-1)
			convFwdTileAsm(d.k, &d.xTaps[0], &w[oc*d.k], &w[oc1*d.k],
				s0, s1, s2, s3, &out[oc*d.p+t], &out[oc1*d.p+t])
		}
	}
}

// WeightsByTap lays weights w (outC×inC×kh×kw) out tap-major as
// wT[ci][ky][kx][oc] for InputGrad. wT has length outC·K.
func (d *DirectConv) WeightsByTap(w, wT []float32) {
	for oc := 0; oc < d.outC; oc++ {
		for j, v := range w[oc*d.k : (oc+1)*d.k] {
			wT[j*d.outC+oc] = v
		}
	}
}

// InputGrad writes the inC×h×w input gradient for a padded output
// gradient (see PadGrad) and tap-major weights (see WeightsByTap) into
// dst. It requires d.Data.
func (d *DirectConv) InputGrad(gpad, wT, dst []float32) {
	dst = dst[:d.inC*d.h*d.w]
	_ = gpad[d.GradPadLen()-1]
	_ = wT[d.outC*d.k-1]
	khkw := d.kh * d.kw
	gq := 4 * d.ghp * d.gwp
	// Each call fills four YMM rows: 32/w channels × one input row.
	per := 32 / d.w
	var wp, dp [4]*float32
	for ch0 := 0; ch0 < d.inC; ch0 += per {
		for iy := 0; iy < d.h; iy++ {
			// Taps whose output row oy = iy−ky+pad lies outside the
			// output contribute nothing, as in col2imS1. Every row keeps
			// at least one tap: iy < h = oh+kh−1−2·pad.
			kyLo := max(0, iy+d.pad-d.oh+1)
			kyHi := min(d.kh, iy+d.pad+1)
			taps := (kyHi - kyLo) * d.kw
			// Channels past inC repeat the last one, which then stores
			// the same row twice.
			for c := 0; c < per; c++ {
				ch := min(ch0+c, d.inC-1)
				wp[c] = &wT[(ch*khkw+kyLo*d.kw)*d.outC]
				dp[c] = &dst[(ch*d.h+iy)*d.w]
			}
			tab := &d.gTaps[2*kyLo*d.kw]
			g := &gpad[iy*d.gwp]
			switch d.w {
			case 32:
				convBwdData32Asm(taps, d.outC, tab, g, gq, &d.gMask[0], wp[0], dp[0])
			case 16:
				convBwdData16Asm(taps, d.outC, tab, g, gq, &d.gMask[0], wp[0], wp[1], dp[0], dp[1])
			default:
				convBwdData8Asm(taps, d.outC, tab, g, gq, &d.gMask[0], wp[0], wp[1], wp[2], wp[3], dp[0], dp[1], dp[2], dp[3])
			}
		}
	}
}

// WeightGrad writes the outC×K weight gradient of one image — output
// gradient g (outC×P) against its padded input (see PadInput) — into
// dW. It requires d.Weight.
func (d *DirectConv) WeightGrad(xpad, g, dW []float32) {
	dW = dW[:d.outC*d.k]
	_ = xpad[d.PadLen()-1]
	g = g[:d.outC*d.p]
	skip := 4 * (d.wp - d.ow)
	var dst [4]float32
	for oc := 0; oc < d.outC; oc++ {
		a := g[oc*d.p : (oc+1)*d.p]
		row := dW[oc*d.k : (oc+1)*d.k]
		j := 0
		for ; j+4 <= d.k; j += 4 {
			t := d.xTaps[j : j+4]
			convDot1x4Asm(d.oh, d.ow/16, skip, &a[0],
				&xpad[t[0]], &xpad[t[1]], &xpad[t[2]], &xpad[t[3]], &dst[0])
			row[j], row[j+1], row[j+2], row[j+3] = dst[0], dst[1], dst[2], dst[3]
		}
		// Taps past the last group of four: the scalar loop of
		// gemmDotABTAVX2's column tail, walking the window in place.
		for ; j < d.k; j++ {
			var s float32
			for oy := 0; oy < d.oh; oy++ {
				ar := a[oy*d.ow : (oy+1)*d.ow]
				br := xpad[d.xTaps[j]+oy*d.wp:]
				br = br[:len(ar)]
				for x := range ar {
					s += ar[x] * br[x]
				}
			}
			row[j] = s
		}
	}
}
