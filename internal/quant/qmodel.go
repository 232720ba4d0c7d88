package quant

import (
	"math"
	"sync"
	"sync/atomic"

	"rowhammer/internal/nn"
	"rowhammer/internal/tensor"
)

// QModel is the native int8 inference engine: it runs the quantizer's
// codes directly through the blocked int8 GEMM (int8×int8 → int32
// accumulators) instead of dequantizing to fp32 and re-running the
// float graph. This is the deployment form the paper attacks (a
// TensorRT-style engine serving the mapped weight file), and it is what
// makes the evaluate-after-flip loops of the offline attack and the
// defense suite cheap.
//
// Construction compiles the float graph into a flat op list:
//
//   - Conv2D [+BatchNorm2D] [+ReLU] fuses into one op — the BN running
//     statistics and gamma/beta fold into the conv's per-channel
//     rescale, so the whole layer is a single int8 GEMM plus one fused
//     fp32 epilogue.
//   - Linear [+ReLU] likewise.
//   - Pool/GAP/ReLU/residual-add run in fp32 between the quantized
//     layers (activations are re-quantized per layer with a dynamic
//     per-tensor scale max|x|/127, the symmetric twin of the weight
//     scales).
//   - Unknown layers (e.g. the binarization-aware convolutions) fall
//     back to their float Forward, bridged by layout conversions.
//
// Activations flow in channel-major CNHW order: a conv's lowered
// columns form ONE wide matrix (every sample side by side), so each
// layer is a single GEMM whose int32 output is already the next layer's
// CNHW input — no per-sample kernel launches and no layout shuffles in
// the hot loop. The lowered matrix is never built: the input is
// quantized into zero-padded planes and the GEMM packs its panels
// straight from them (tensor.ConvI8; DESIGN §13).
//
// Weight panels and fused epilogue coefficients live in published
// epoch snapshots (epoch.go): the quantizer's code-change notifications
// mark exactly the touched slots dirty, and the next publish repacks
// one layer and structurally shares everything else. Forward pins one
// immutable epoch per call — two atomic ops, no lock on the clean hot
// path — so it is safe for concurrent use when ConcurrentSafe reports
// true (no fallback float layers, whose caches are per-layer state).
// Mutating codes concurrently with Forward is supported only through
// Exclusive, which publishes the post-mutation epoch before returning;
// plain SetCode/FlipBit with concurrent forwards remains unsupported.
type QModel struct {
	q     *Quantizer
	model *nn.Model
	ops   []qOp

	// hasFallback marks plans that execute stateful float layers.
	hasFallback bool

	// Epoch engine state (epoch.go): the published snapshot, the dirty
	// bookkeeping feeding the next publish, and the retirement gauge.
	mu          sync.Mutex
	cur         atomic.Pointer[epoch]
	anyDirty    atomic.Bool
	gemms       []gemmOp
	panelsDirty []bool
	coeffsDirty []bool
	liveEpochs  atomic.Int64
	// paramPanelSlot / paramCoeffSlot map parameter-tensor index → the
	// epoch slot whose panels / epilogue coefficients the parameter
	// feeds (-1 when none: fallback-layer params).
	paramPanelSlot []int
	paramCoeffSlot []int

	// paramStage maps parameter-tensor index → the top-level op (stage)
	// that reads it, or -1 when no op does. A code change to parameter
	// pi leaves every activation entering stages ≤ paramStage[pi]
	// untouched — the invalidation contract the suffix Scorer builds on.
	paramStage []int
	// paramWeight maps parameter-tensor index → the packed-weight
	// binding when the parameter is a lowered GEMM weight (conv/linear).
	// Exactly these parameters support the scorer's concurrent
	// per-candidate panel overrides; nil entries (biases, BN affine,
	// fallback-layer params) score via mutate-and-revert.
	paramWeight []*qweights
}

// NewQModel compiles the quantized execution plan for the quantizer's
// model and registers for incremental invalidation.
func NewQModel(q *Quantizer) *QModel {
	qm := &QModel{
		q:     q,
		model: q.Model(),
	}
	qm.ops = qm.compile([]nn.Layer{q.Model().Root})
	qm.buildStageIndex()
	qm.initEpochs()
	q.OnCodesChanged(qm.markDirty)
	return qm
}

// Model returns the underlying float model.
func (qm *QModel) Model() *nn.Model { return qm.model }

// Quantizer returns the bound quantizer.
func (qm *QModel) Quantizer() *Quantizer { return qm.q }

// ConcurrentSafe reports whether Forward may be called from multiple
// goroutines at once. Plans containing float fallback layers are not
// safe because nn layers cache per-call state.
func (qm *QModel) ConcurrentSafe() bool { return !qm.hasFallback }

// Forward runs the quantized network on a batch — (N, C, H, W), or
// (N, F) for flat-input models — and returns logits (N, K).
func (qm *QModel) Forward(x *tensor.Tensor) *tensor.Tensor {
	ep := qm.acquireEpoch()
	defer ep.release()
	in := tensorToAct(x)
	out := runOps(qm.ops, &execEnv{ep: ep}, in)
	logits := actToLogits(out)
	if out != in {
		putAct(out)
	}
	putAct(in)
	return logits
}

// actToLogits transposes the final channel-major activation into the
// (N, K) logits tensor Forward returns.
func actToLogits(out *qact) *tensor.Tensor {
	k := out.c * out.h * out.w
	n := out.n
	hw := out.h * out.w
	logits := tensor.New(n, k)
	ld := logits.Data()
	for c := 0; c < out.c; c++ {
		for i := 0; i < n; i++ {
			base := (c*n + i) * hw
			copy(ld[i*k+c*hw:i*k+c*hw+hw], out.data[base:base+hw])
		}
	}
	return logits
}

// Predict returns the argmax class for every sample in the batch.
func (qm *QModel) Predict(x *tensor.Tensor) []int {
	logits := qm.Forward(x)
	n := logits.Dim(0)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = logits.ArgMaxRow(i)
	}
	return out
}

// ---------------------------------------------------------------------
// Activations: pooled fp32 buffers in channel-major CNHW order, so the
// (c, n) pair indexes a contiguous h·w plane and a conv's GEMM output
// needs no reshuffle.

type qact struct {
	data       []float32
	c, n, h, w int
}

func getAct(c, n, h, w int) *qact {
	return &qact{data: tensor.GetF32(c * n * h * w), c: c, n: n, h: h, w: w}
}

func putAct(a *qact) {
	if a == nil {
		return
	}
	tensor.PutF32(a.data)
	a.data = nil
}

// tensorToAct transposes a batch tensor — (N, C, H, W) or (N, F) — into
// a channel-major activation.
func tensorToAct(t *tensor.Tensor) *qact {
	sh := t.Shape()
	var n, c, h, w int
	switch len(sh) {
	case 2:
		n, c, h, w = sh[0], sh[1], 1, 1
	case 4:
		n, c, h, w = sh[0], sh[1], sh[2], sh[3]
	default:
		panic("quant: unsupported activation rank")
	}
	a := getAct(c, n, h, w)
	td := t.Data()
	hw := h * w
	for ci := 0; ci < c; ci++ {
		for i := 0; i < n; i++ {
			copy(a.data[(ci*n+i)*hw:(ci*n+i+1)*hw], td[(i*c+ci)*hw:(i*c+ci)*hw+hw])
		}
	}
	return a
}

// actToTensor transposes back to (N, C, H, W) for float fallback layers.
func actToTensor(a *qact) *tensor.Tensor {
	t := tensor.New(a.n, a.c, a.h, a.w)
	td := t.Data()
	hw := a.h * a.w
	for c := 0; c < a.c; c++ {
		for i := 0; i < a.n; i++ {
			copy(td[(i*a.c+c)*hw:(i*a.c+c)*hw+hw], a.data[(c*a.n+i)*hw:(c*a.n+i+1)*hw])
		}
	}
	return t
}

// runOps threads an activation through an op chain. The input is owned
// by the caller; every intermediate is returned to the pool.
func runOps(ops []qOp, ec *execEnv, in *qact) *qact {
	cur := in
	for _, op := range ops {
		next := op.forward(ec, cur)
		if cur != in && cur != next {
			putAct(cur)
		}
		cur = next
	}
	return cur
}

// execEnv carries per-invocation execution state: the pinned epoch the
// forward reads (nil for single-goroutine callers, which resolve the
// current epoch lazily per op) and an optional packed-panel override
// for exactly one weight tensor. The scorer's concurrent candidate
// fan-out uses the override to run a suffix forward "as if" a single
// code were changed, without mutating the shared quantizer or the
// published epochs.
type execEnv struct {
	// ep is the epoch snapshot pinned for the whole invocation. When
	// nil, ops resolve QModel.readEpoch per op — correct only under the
	// single-goroutine mutation contract the scorer operates in.
	ep *epoch
	// target selects the weight binding to override.
	target *qweights
	// panels is the replacement packed-panel buffer for target, packed
	// from the candidate's modified codes with the same PackAI8 layout
	// the epoch slots use, so the GEMM output is bit-identical to a
	// SetCode + publish.
	panels []int16
}

// slotOf resolves an op's epoch slot: the pinned epoch's when one is
// carried, the current epoch's otherwise.
func (ec *execEnv) slotOf(w *qweights) *epochSlot {
	if ec != nil && ec.ep != nil {
		return &ec.ep.slots[w.eidx]
	}
	return &w.qm.readEpoch().slots[w.eidx]
}

// panelsOf returns the packed panels for an op given its resolved slot,
// honoring the override when this op's weights are the override target.
func (ec *execEnv) panelsOf(w *qweights, sl *epochSlot) []int16 {
	if ec != nil && ec.target == w {
		return ec.panels
	}
	return sl.panels
}

// opInPlace reports whether the op may return its (mutated) input
// activation instead of a fresh buffer. Callers executing ops on cached
// activations must clone first.
func opInPlace(op qOp) bool {
	switch v := op.(type) {
	case *qReluOp:
		return true
	case *qResidualOp:
		// The add+ReLU epilogue writes into the main branch's output,
		// which aliases the block input only if every main op is in
		// place (degenerate plans; real blocks start with a conv).
		for _, sub := range v.main {
			if !opInPlace(sub) {
				return false
			}
		}
		return true
	}
	return false
}

// workersFor sizes a ParallelChunks fan-out: tiny workloads run inline.
func workersFor(work int) int {
	if work < 4096 {
		return 1
	}
	return tensor.MaxWorkers()
}

// quantizeAct quantizes a channel-major activation with the dynamic
// per-tensor scale max|x|/127 and round-to-nearest, returning the scale
// and the codes (pooled; release with tensor.PutI8): each (c, n) plane
// is written into a (h+2·pad)×(w+2·pad) plane with a zero border pad
// wide, the layout tensor.ConvI8 reads. An all-zero activation (NaN
// aside) gets scale 1 and all-zero codes.
func quantizeAct(in *qact, pad int) ([]int8, float32) {
	src := in.data
	workers := workersFor(len(src))
	var mu sync.Mutex
	var maxAbs float32
	tensor.ParallelChunks(len(src), workers, func(lo, hi int) {
		m := tensor.MaxAbs(src[lo:hi])
		mu.Lock()
		if m > maxAbs {
			maxAbs = m
		}
		mu.Unlock()
	})
	h, w := in.h, in.w
	plane := (h + 2*pad) * (w + 2*pad)
	xq := tensor.GetI8(in.c * in.n * plane)
	if maxAbs == 0 {
		clear(xq)
		return xq, 1
	}
	inv := qmax / maxAbs
	tensor.ParallelChunks(in.c*in.n, workers, func(lo, hi int) {
		tensor.QuantizePlanesI8(xq[lo*plane:hi*plane], src[lo*h*w:hi*h*w], h, w, pad, inv)
	})
	return xq, maxAbs / qmax
}

// ---------------------------------------------------------------------
// Weight bindings. Packed panels live in the published epoch snapshots
// (epoch.go), not here: a binding only records where the live codes are
// and which epoch slot serves this op.

// qweights binds an op to its live code segment, packed GEMM geometry
// (m × k row-major codes) and epoch slot.
type qweights struct {
	codes []int8
	scale float32
	m, k  int
	// eidx is the op's epoch-slot index; qm resolves slots for
	// single-goroutine callers that carry no pinned epoch.
	eidx int
	qm   *QModel
}

func (w *qweights) binding() *qweights { return w }

func (qm *QModel) bindWeights(w *qweights, p *nn.Param, m, k int) {
	pi := qm.q.ParamIndexOf(p)
	w.codes, w.scale = qm.q.ParamCodes(pi)
	w.m, w.k = m, k
	w.qm = qm
}

// buildStageIndex derives, for every parameter tensor, the top-level
// stage that reads it and (for lowered GEMM weights) the qweights
// binding — the mapping the suffix scorer uses to turn "code i changed"
// into "activations entering stages ≤ s are still valid".
func (qm *QModel) buildStageIndex() {
	nparams := len(qm.model.Params())
	qm.paramStage = make([]int, nparams)
	qm.paramPanelSlot = make([]int, nparams)
	qm.paramCoeffSlot = make([]int, nparams)
	for i := range qm.paramStage {
		qm.paramStage[i] = -1
		qm.paramPanelSlot[i] = -1
		qm.paramCoeffSlot[i] = -1
	}
	qm.paramWeight = make([]*qweights, nparams)
	for si, op := range qm.ops {
		qm.indexOpParams(si, op)
	}
}

func (qm *QModel) indexOpParams(stage int, op qOp) {
	// bind records the stage of parameter p; w non-nil marks it a
	// lowered GEMM weight (its flips stale the slot's packed panels),
	// coeffSlot ≥ 0 marks it an epilogue input (bias/BN affine — its
	// flips stale the slot's folded coefficients).
	bind := func(p *nn.Param, w *qweights, coeffSlot int) {
		if p == nil {
			return
		}
		pi := qm.q.ParamIndexOf(p)
		if pi < 0 {
			return
		}
		if qm.paramStage[pi] < 0 {
			qm.paramStage[pi] = stage
		}
		if w != nil && qm.paramWeight[pi] == nil {
			qm.paramWeight[pi] = w
			qm.paramPanelSlot[pi] = w.eidx
		}
		if coeffSlot >= 0 && qm.paramCoeffSlot[pi] < 0 {
			qm.paramCoeffSlot[pi] = coeffSlot
		}
	}
	switch v := op.(type) {
	case *qConvOp:
		bind(v.conv.Weight, &v.qweights, -1)
		bind(v.conv.Bias, nil, v.eidx)
		if v.bn != nil {
			bind(v.bn.Gamma, nil, v.eidx)
			bind(v.bn.Beta, nil, v.eidx)
		}
	case *qLinearOp:
		bind(v.lin.Weight, &v.qweights, -1)
		bind(v.lin.Bias, nil, v.eidx)
	case *qResidualOp:
		for _, sub := range v.main {
			qm.indexOpParams(stage, sub)
		}
		for _, sub := range v.shortcut {
			qm.indexOpParams(stage, sub)
		}
	case *qFallbackOp:
		for _, l := range v.layers {
			for _, p := range l.Params() {
				bind(p, nil, -1)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Plan compilation.

type qOp interface {
	// forward executes the op. ec (nil for plain inference) may carry a
	// packed-panel override for one weight tensor; ops must honor it via
	// execEnv.panelsOf so a scorer candidate can shadow one layer's
	// weights without mutating shared state.
	forward(ec *execEnv, in *qact) *qact
}

// compile lowers a layer list into the op plan, fusing Conv+BN+ReLU and
// Linear+ReLU and batching unknown layers into float fallback ops.
func (qm *QModel) compile(layers []nn.Layer) []qOp {
	var ops []qOp
	var pending []nn.Layer
	flush := func() {
		if len(pending) > 0 {
			ops = append(ops, &qFallbackOp{layers: pending})
			qm.hasFallback = true
			pending = nil
		}
	}
	for i := 0; i < len(layers); i++ {
		switch v := layers[i].(type) {
		case *nn.Sequential:
			flush()
			ops = append(ops, qm.compile(v.Layers())...)
		case *nn.Residual:
			flush()
			r := &qResidualOp{main: qm.compile([]nn.Layer{v.Main})}
			if v.Shortcut != nil {
				r.shortcut = qm.compile([]nn.Layer{v.Shortcut})
			}
			ops = append(ops, r)
		case *nn.Conv2D:
			flush()
			op := &qConvOp{conv: v}
			if j := i + 1; j < len(layers) {
				if bn, ok := layers[j].(*nn.BatchNorm2D); ok {
					op.bn = bn
					i = j
				}
			}
			if j := i + 1; j < len(layers) {
				if _, ok := layers[j].(*nn.ReLU); ok {
					op.relu = true
					i = j
				}
			}
			inC, outC, kh, kw, _, _ := v.Geom()
			qm.bindWeights(&op.qweights, v.Weight, outC, inC*kh*kw)
			qm.registerGemm(op)
			ops = append(ops, op)
		case *nn.Linear:
			flush()
			op := &qLinearOp{lin: v}
			if j := i + 1; j < len(layers) {
				if _, ok := layers[j].(*nn.ReLU); ok {
					op.relu = true
					i = j
				}
			}
			inF, outF := v.Dims()
			qm.bindWeights(&op.qweights, v.Weight, outF, inF)
			qm.registerGemm(op)
			ops = append(ops, op)
		case *nn.ReLU:
			flush()
			ops = append(ops, &qReluOp{})
		case *nn.MaxPool2D:
			flush()
			ops = append(ops, &qMaxPoolOp{pool: v})
		case *nn.GlobalAvgPool:
			flush()
			ops = append(ops, &qGapOp{})
		case *nn.Flatten:
			flush()
			// Logical only: qLinearOp gathers features straight from the
			// channel-major layout, so flatten moves no data.
		default:
			pending = append(pending, layers[i])
		}
	}
	flush()
	return ops
}

// ---------------------------------------------------------------------
// Ops.

// qConvOp is a fused Conv[+BN][+ReLU] layer on int8 codes: quantize the
// input into padded planes, one int8 GEMM over their implicit im2col
// lowering, and a per-channel fp32 epilogue folding the
// activation/weight scales, the conv bias and the BatchNorm affine
// (running statistics) — plus the ReLU clamp — into a single pass over
// the int32 accumulators.
type qConvOp struct {
	qweights
	conv *nn.Conv2D
	bn   *nn.BatchNorm2D // nil when the conv is not followed by BN
	relu bool
}

func (op *qConvOp) forward(ec *execEnv, in *qact) *qact {
	inC, outC, kh, kw, stride, pad := op.conv.Geom()
	if in.c != inC {
		panic("quant: conv input channel mismatch")
	}
	n := in.n
	oh, ow := op.conv.OutSize(in.h, in.w)
	ncols := n * oh * ow

	xq, sx := quantizeAct(in, pad)
	sl := ec.slotOf(&op.qweights)
	acc := tensor.GetI32(outC * ncols)
	tensor.GemmI8PackedA(acc, ec.panelsOf(&op.qweights, sl), outC, inC*kh*kw, ncols,
		tensor.ConvI8(xq, inC, n, in.h+2*pad, in.w+2*pad, kh, kw, stride))
	tensor.PutI8(xq)

	out := getAct(outC, n, oh, ow)
	base := sx * op.scale
	cA, cS := sl.cA, sl.cS
	od := out.data
	tensor.ParallelChunks(outC, workersFor(outC*ncols), func(lo, hi int) {
		for oc := lo; oc < hi; oc++ {
			// mo/so reproduce the pre-epoch epilogue bit for bit: the
			// sx-independent factors were folded at publish time with the
			// exact expressions the per-forward path used.
			mo := base
			if cA != nil {
				mo = base * cA[oc]
			}
			var so float32
			if cS != nil {
				so = cS[oc]
			}
			tensor.DequantI32(od[oc*ncols:(oc+1)*ncols], acc[oc*ncols:], mo, so, op.relu)
		}
	})
	tensor.PutI32(acc)
	return out
}

// epochCoeffs folds the conv bias and the BN affine (running statistics
// included) into the per-channel epilogue factors of one epoch slot:
// the final multiplier is sx·Δw·cA and the shift is cS, exactly the
// (mul, shift) the engine computed per forward before epochs. Called at
// publish time from the epoch rebuild.
func (op *qConvOp) epochCoeffs() (cA, cS []float32) {
	_, outC, _, _, _, _ := op.conv.Geom()
	var bias []float32
	if op.conv.Bias != nil {
		bias = op.conv.Bias.W.Data()
	}
	if op.bn == nil {
		if bias == nil {
			return nil, nil // multiplier is the base, shift is zero
		}
		return nil, append([]float32(nil), bias...)
	}
	cA = make([]float32, outC)
	cS = make([]float32, outC)
	g := op.bn.Gamma.W.Data()
	bt := op.bn.Beta.W.Data()
	eps := float64(op.bn.Eps())
	for oc := 0; oc < outC; oc++ {
		istd := float32(1 / math.Sqrt(float64(op.bn.RunningVar[oc])+eps))
		a := g[oc] * istd
		cA[oc] = a
		s := bt[oc] - op.bn.RunningMean[oc]*a
		if bias != nil {
			s += bias[oc] * a
		}
		cS[oc] = s
	}
	return cA, cS
}

// qLinearOp is a fused Linear[+ReLU] on int8 codes. At h = w = 1 (the
// classifier position) the channel-major activation (c, n) is exactly
// the (In × N) right-hand side the GEMM wants; on a spatial input the
// packer gathers the flatten order from the planes.
type qLinearOp struct {
	qweights
	lin  *nn.Linear
	relu bool
}

// epochCoeffs snapshots the (quantized, flippable) bias into the slot's
// shift vector; the multiplier is always the dynamic sx·Δw base.
func (op *qLinearOp) epochCoeffs() (cA, cS []float32) {
	if op.lin.Bias == nil {
		return nil, nil
	}
	return nil, append([]float32(nil), op.lin.Bias.W.Data()...)
}

func (op *qLinearOp) forward(ec *execEnv, in *qact) *qact {
	inF, outF := op.lin.Dims()
	n := in.n
	if in.c*in.h*in.w != inF {
		panic("quant: linear input width mismatch")
	}
	// The flatten is a conv whose kernel covers the whole plane: row
	// c·h·w + s, column i reads plane (c, i) at s. At h = w = 1 that is
	// the (c, n) activation itself, a plain matrix.
	xq, sx := quantizeAct(in, 0)
	sl := ec.slotOf(&op.qweights)
	acc := tensor.GetI32(outF * n)
	tensor.GemmI8PackedA(acc, ec.panelsOf(&op.qweights, sl), outF, inF, n,
		tensor.ConvI8(xq, in.c, n, in.h, in.w, in.h, in.w, 1))
	tensor.PutI8(xq)

	out := getAct(outF, n, 1, 1)
	mulS := sx * op.scale
	bias := sl.cS
	for o := 0; o < outF; o++ {
		var b float32
		if bias != nil {
			b = bias[o]
		}
		tensor.DequantI32(out.data[o*n:(o+1)*n], acc[o*n:], mulS, b, op.relu)
	}
	tensor.PutI32(acc)
	return out
}

// qReluOp clamps in place (layout-agnostic).
type qReluOp struct{}

func (op *qReluOp) forward(_ *execEnv, in *qact) *qact {
	d := in.data
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
	return in
}

// qMaxPoolOp pools each (channel, sample) plane.
type qMaxPoolOp struct {
	pool *nn.MaxPool2D
}

func (op *qMaxPoolOp) forward(_ *execEnv, in *qact) *qact {
	k, stride := op.pool.Window()
	c, n, h, w := in.c, in.n, in.h, in.w
	oh := (h-k)/stride + 1
	ow := (w-k)/stride + 1
	out := getAct(c, n, oh, ow)
	hw, ohow := h*w, oh*ow
	xd, od := in.data, out.data
	tensor.ParallelChunks(c*n, workersFor(c*n*ohow*k*k), func(lo, hi int) {
		for p := lo; p < hi; p++ {
			inBase := p * hw
			outBase := p * ohow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := xd[inBase+oy*stride*w+ox*stride]
					for ky := 0; ky < k; ky++ {
						row := inBase + (oy*stride+ky)*w
						for kx := 0; kx < k; kx++ {
							if v := xd[row+ox*stride+kx]; v > best {
								best = v
							}
						}
					}
					od[outBase+oy*ow+ox] = best
				}
			}
		}
	})
	return out
}

// qGapOp averages each (channel, sample) plane to (c, n).
type qGapOp struct{}

func (op *qGapOp) forward(_ *execEnv, in *qact) *qact {
	hw := in.h * in.w
	out := getAct(in.c, in.n, 1, 1)
	inv := 1 / float32(hw)
	xd, od := in.data, out.data
	for p := 0; p < in.c*in.n; p++ {
		var s float32
		base := p * hw
		for j := 0; j < hw; j++ {
			s += xd[base+j]
		}
		od[p] = s * inv
	}
	return out
}

// qResidualOp runs both branches on the same input and applies the
// block's add+ReLU epilogue in place on the main branch's output.
type qResidualOp struct {
	main     []qOp
	shortcut []qOp // nil for identity
}

func (op *qResidualOp) forward(ec *execEnv, in *qact) *qact {
	mo := runOps(op.main, ec, in)
	so := in
	if op.shortcut != nil {
		so = runOps(op.shortcut, ec, in)
	}
	tensor.AddClampNeg(mo.data, mo.data, so.data)
	if so != in {
		putAct(so)
	}
	return mo
}

// qFallbackOp bridges layers the quantized engine does not lower
// (binarized convs, taps): convert to NCHW, run the float forwards in
// eval mode, convert back. Plans containing it are not concurrency-safe.
type qFallbackOp struct {
	layers []nn.Layer
}

func (op *qFallbackOp) forward(_ *execEnv, in *qact) *qact {
	x := actToTensor(in)
	for _, l := range op.layers {
		x = l.Forward(x, false)
	}
	return tensorToAct(x)
}
