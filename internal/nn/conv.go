package nn

import (
	"rowhammer/internal/tensor"
)

// convBwdChunks returns the fixed chunk count for the backward batch
// partition. It depends only on the batch size — never on the worker
// count — so the per-chunk gradient slots and their fixed-order tree
// reduction give bit-identical results at any parallelism level.
func convBwdChunks(n int) int {
	c := n / 2
	if c > 8 {
		c = 8
	}
	if c < 1 {
		c = 1
	}
	return c
}

// Conv2D is a 2-D convolution with square-independent kernel size,
// stride and zero padding. The weight layout is (OutC, InC, KH, KW),
// matching the PyTorch state-dict layout the paper's weight files use.
type Conv2D struct {
	Weight *Param
	Bias   *Param // nil when the layer is bias-free (ResNet convs)

	inC, outC          int
	kh, kw             int
	stride, pad        int
	lastInput          *tensor.Tensor
	lastH, lastW       int
	lastOutH, lastOutW int

	// Steady-state buffers: the output and input-gradient tensors are
	// grow-only per-layer caches (training-mode only for the output, so
	// inference callers may hold results across calls) and the weight
	// matrix views are built once. Column panels are never kept between
	// passes: a product the direct path takes reads a pooled per-chunk
	// zero-padded copy of the image or gradient, and any other product
	// lowers each image into a pooled per-chunk im2col buffer, so a
	// layer holds no batch-sized column storage.
	outBuf    *tensor.Tensor
	gradInBuf *tensor.Tensor
	wMat      *tensor.Tensor
	gWMat     *tensor.Tensor
	fwd       *convFwdScratch
	bwd       *convBwdScratch

	// The direct stride-1 path for the last input geometry: its gates
	// and tap tables are built once per geometry; wT holds the
	// tap-major weights its input gradient reads.
	direct           *tensor.DirectConv
	directH, directW int
	wT               []float32
}

// convForceIm2Col pins every conv product to the im2col + GEMM
// lowering; tests flip it to compare the direct path against that
// reference.
var convForceIm2Col bool

// directConv returns the direct path for an h×w input, or nil when
// every product keeps the im2col lowering. A nil plan is cheap to
// recompute, so only a non-nil one is kept.
func (c *Conv2D) directConv(h, w int) *tensor.DirectConv {
	if convForceIm2Col {
		return nil
	}
	if c.direct == nil || c.directH != h || c.directW != w {
		c.direct = tensor.NewDirectConv(c.inC, c.outC, h, w, c.kh, c.kw, c.stride, c.pad)
		c.directH, c.directW = h, w
	}
	return c.direct
}

// convFwdScratch caches the per-chunk forward tensor headers (im2col
// panel view and output view), rebuilt when the batch geometry changes.
type convFwdScratch struct {
	n, h, w int
	colT    []*tensor.Tensor
	dst     []*tensor.Tensor
}

// convBwdScratch caches the per-chunk backward working set — the slot
// buffers the chunk gradients accumulate into and the tensor headers
// the chunk loop rebinds onto pooled storage each call — so a
// steady-state Backward allocates nothing. It is rebuilt whenever the
// batch geometry changes.
type convBwdScratch struct {
	n, h, w  int
	slotBuf  []float32
	biasSlot []float32
	slots    [][]float32
	colT     []*tensor.Tensor
	gradCol  []*tensor.Tensor
	tmpGW    []*tensor.Tensor
	localGW  []*tensor.Tensor
	g        []*tensor.Tensor
}

// bindMat points a cached header at data, creating it on first use.
// Geometry is fixed for a given scratch, so a later call only rebinds
// the storage.
func bindMat(slot **tensor.Tensor, data []float32, r, c int) *tensor.Tensor {
	if *slot == nil {
		*slot = tensor.FromSlice(data, r, c)
	} else {
		(*slot).Rebind(data)
	}
	return *slot
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D constructs a convolution layer with Kaiming-initialized
// weights. Set withBias to false for convolutions followed by batch
// norm.
func NewConv2D(name string, rng *tensor.RNG, inC, outC, k, stride, pad int, withBias bool) *Conv2D {
	w := tensor.New(outC, inC, k, k)
	rng.KaimingNormal(w, inC*k*k)
	c := &Conv2D{
		Weight: NewParam(name+".weight", w),
		inC:    inC, outC: outC,
		kh: k, kw: k,
		stride: stride, pad: pad,
	}
	if withBias {
		c.Bias = NewParam(name+".bias", tensor.New(outC))
	}
	return c
}

// OutSize returns the spatial output size for an input of h×w.
func (c *Conv2D) OutSize(h, w int) (oh, ow int) {
	return (h+2*c.pad-c.kh)/c.stride + 1, (w+2*c.pad-c.kw)/c.stride + 1
}

// weightViews returns the (OutC, InC·KH·KW) matrix views of the weight
// and its gradient, built once (the parameter storage never moves).
func (c *Conv2D) weightViews() (wMat, gWMat *tensor.Tensor) {
	ckk := c.inC * c.kh * c.kw
	if c.wMat == nil {
		c.wMat = c.Weight.W.Reshape(c.outC, ckk)
		c.gWMat = c.Weight.G.Reshape(c.outC, ckk)
	}
	return c.wMat, c.gWMat
}

// Forward implements Layer for input (N, InC, H, W).
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.OutSize(h, w)
	c.lastInput, c.lastH, c.lastW, c.lastOutH, c.lastOutW = x, h, w, oh, ow

	var out *tensor.Tensor
	if train {
		c.outBuf = tensor.Ensure(c.outBuf, n, c.outC, oh, ow)
		out = c.outBuf
	} else {
		out = tensor.New(n, c.outC, oh, ow)
	}
	wMat, _ := c.weightViews()
	imgLen := c.inC * h * w
	outLen := c.outC * oh * ow
	colLen := tensor.ColBufLen(c.inC, h, w, c.kh, c.kw, c.stride, c.pad)

	chunks := convBwdChunks(n)
	if dc := c.directConv(h, w); dc != nil && dc.Fwd {
		tensor.ParallelChunksIndexed(n, chunks, tensor.MaxWorkers(), func(_, lo, hi int) {
			xpad := tensor.GetF32Zeroed(dc.PadLen())
			for i := lo; i < hi; i++ {
				od := out.Data()[i*outLen : (i+1)*outLen]
				dc.PadInput(x.Data()[i*imgLen:(i+1)*imgLen], xpad)
				dc.Forward(xpad, wMat.Data(), od)
				c.addBias(od)
			}
			tensor.PutF32(xpad)
		})
		return out
	}
	fs := c.fwd
	if fs == nil || fs.n != n || fs.h != h || fs.w != w {
		fs = &convFwdScratch{
			n: n, h: h, w: w,
			colT: make([]*tensor.Tensor, chunks),
			dst:  make([]*tensor.Tensor, chunks),
		}
		c.fwd = fs
	}
	tensor.ParallelChunksIndexed(n, chunks, tensor.MaxWorkers(), func(idx, lo, hi int) {
		col := tensor.GetF32(colLen)
		colT := bindMat(&fs.colT[idx], col, c.inC*c.kh*c.kw, oh*ow)
		dst := bindMat(&fs.dst[idx], out.Data()[lo*outLen:(lo+1)*outLen], c.outC, oh*ow)
		for i := lo; i < hi; i++ {
			img := x.Data()[i*imgLen : (i+1)*imgLen]
			tensor.Im2Col(img, c.inC, h, w, c.kh, c.kw, c.stride, c.pad, col)
			dst.Rebind(out.Data()[i*outLen : (i+1)*outLen])
			tensor.MatMulInto(dst, wMat, colT)
			c.addBias(dst.Data())
		}
		tensor.PutF32(col)
	})
	return out
}

// addBias adds the per-channel bias to one image's outC×P output.
func (c *Conv2D) addBias(od []float32) {
	if c.Bias == nil {
		return
	}
	p := len(od) / c.outC
	for oc, b := range c.Bias.W.Data() {
		row := od[oc*p : (oc+1)*p]
		for j := range row {
			row[j] += b
		}
	}
}

// Backward implements Layer. The batch is partitioned into a fixed
// number of chunks (a function of the batch size only); each chunk
// accumulates its weight-gradient contribution into a private slot and
// the slots are tree-reduced in fixed order, so the result is
// bit-identical at any worker count. Each gradient product the direct
// path takes reads a pooled per-chunk zero-padded copy of the image or
// output gradient; any other product re-lowers the image with im2col
// into a pooled per-chunk buffer (the same values the forward
// computed) and runs its GEMM. Everything else is pooled or
// layer-cached, so the steady state allocates nothing.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.lastInput
	n, h, w := x.Dim(0), c.lastH, c.lastW
	oh, ow := c.lastOutH, c.lastOutW
	imgLen := c.inC * h * w
	outLen := c.outC * oh * ow
	ckk := c.inC * c.kh * c.kw
	colLen := tensor.ColBufLen(c.inC, h, w, c.kh, c.kw, c.stride, c.pad)

	c.gradInBuf = tensor.Ensure(c.gradInBuf, n, c.inC, h, w)
	gradIn := c.gradInBuf
	wMat, gWMat := c.weightViews()
	dc := c.directConv(h, w)
	dataDirect := dc != nil && dc.Data
	weightDirect := dc != nil && dc.Weight
	if dataDirect {
		if len(c.wT) != c.outC*ckk {
			c.wT = make([]float32, c.outC*ckk)
		}
		dc.WeightsByTap(c.Weight.W.Data(), c.wT)
	}

	chunks := convBwdChunks(n)
	slotLen := c.outC * ckk
	sc := c.bwd
	if sc == nil || sc.n != n || sc.h != h || sc.w != w {
		sc = &convBwdScratch{
			n: n, h: h, w: w,
			slotBuf: make([]float32, chunks*slotLen),
			slots:   make([][]float32, chunks),
			colT:    make([]*tensor.Tensor, chunks),
			gradCol: make([]*tensor.Tensor, chunks),
			tmpGW:   make([]*tensor.Tensor, chunks),
			localGW: make([]*tensor.Tensor, chunks),
			g:       make([]*tensor.Tensor, chunks),
		}
		if c.Bias != nil {
			sc.biasSlot = make([]float32, chunks*c.outC)
		}
		c.bwd = sc
	}
	slotBuf := sc.slotBuf
	for i := range slotBuf {
		slotBuf[i] = 0
	}
	biasSlots := sc.biasSlot
	for i := range biasSlots {
		biasSlots[i] = 0
	}

	tensor.ParallelChunksIndexed(n, chunks, tensor.MaxWorkers(), func(idx, lo, hi int) {
		var col, xpad, gradColData, gpad []float32
		var colT, gradCol *tensor.Tensor
		if weightDirect {
			xpad = tensor.GetF32Zeroed(dc.PadLen())
		} else {
			col = tensor.GetF32(colLen)
			colT = bindMat(&sc.colT[idx], col, ckk, oh*ow)
		}
		if dataDirect {
			gpad = tensor.GetF32Zeroed(dc.GradPadLen())
		} else {
			gradColData = tensor.GetF32(ckk * oh * ow)
			gradCol = bindMat(&sc.gradCol[idx], gradColData, ckk, oh*ow)
		}
		tmpGWData := tensor.GetF32(c.outC * ckk)
		tmpGW := bindMat(&sc.tmpGW[idx], tmpGWData, c.outC, ckk)
		localGW := bindMat(&sc.localGW[idx], slotBuf[idx*slotLen:(idx+1)*slotLen], c.outC, ckk)
		g := bindMat(&sc.g[idx], grad.Data()[lo*outLen:(lo+1)*outLen], c.outC, oh*ow)
		var localGB []float32
		if c.Bias != nil {
			localGB = biasSlots[idx*c.outC : (idx+1)*c.outC]
		}
		first := true
		for i := lo; i < hi; i++ {
			img := x.Data()[i*imgLen : (i+1)*imgLen]
			g.Rebind(grad.Data()[i*outLen : (i+1)*outLen])

			// dW_slot += g · colᵀ; the first item writes straight into
			// the slot (it was zeroed), later items go via scratch.
			gw := tmpGW
			if first {
				gw = localGW
			}
			if weightDirect {
				dc.PadInput(img, xpad)
				dc.WeightGrad(xpad, g.Data(), gw.Data())
			} else {
				tensor.Im2Col(img, c.inC, h, w, c.kh, c.kw, c.stride, c.pad, col)
				tensor.MatMulABTInto(gw, g, colT)
			}
			if first {
				first = false
			} else {
				localGW.AddScaled(tmpGW, 1)
			}

			// dX = Col2Im(Wᵀ · g), or its direct equivalent.
			dst := gradIn.Data()[i*imgLen : (i+1)*imgLen]
			if dataDirect {
				dc.PadGrad(g.Data(), gpad)
				dc.InputGrad(gpad, c.wT, dst)
			} else {
				tensor.MatMulATBInto(gradCol, wMat, g)
				for j := range dst {
					dst[j] = 0
				}
				tensor.Col2Im(gradCol.Data(), c.inC, h, w, c.kh, c.kw, c.stride, c.pad, dst)
			}

			if c.Bias != nil {
				gd := g.Data()
				for oc := 0; oc < c.outC; oc++ {
					row := gd[oc*oh*ow : (oc+1)*oh*ow]
					var s float32
					for _, v := range row {
						s += v
					}
					localGB[oc] += s
				}
			}
		}
		tensor.PutF32(col)
		tensor.PutF32(xpad)
		tensor.PutF32(gradColData)
		tensor.PutF32(gpad)
		tensor.PutF32(tmpGWData)
	})

	// Fixed-order tree reduction of the chunk slots into the parameter
	// gradients — deterministic regardless of scheduling.
	slots := sc.slots
	for s := range slots {
		slots[s] = slotBuf[s*slotLen : (s+1)*slotLen]
	}
	tensor.TreeReduceInto(gWMat.Data(), slots)
	if c.Bias != nil {
		for s := range slots {
			slots[s] = biasSlots[s*c.outC : (s+1)*c.outC]
		}
		tensor.TreeReduceInto(c.Bias.G.Data(), slots)
	}
	return gradIn
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.Bias != nil {
		return []*Param{c.Weight, c.Bias}
	}
	return []*Param{c.Bias, c.Weight}[1:]
}
