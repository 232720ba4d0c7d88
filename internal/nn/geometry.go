package nn

// Read-only geometry accessors. The layer structs keep their hyper-
// parameters unexported (they are fixed at construction), but the
// quantized inference engine in internal/quant compiles a parallel
// execution plan from the float graph and needs the shapes to do it.

// Geom returns the convolution's geometry: input/output channels,
// kernel extents, stride and padding.
func (c *Conv2D) Geom() (inC, outC, kh, kw, stride, pad int) {
	return c.inC, c.outC, c.kh, c.kw, c.stride, c.pad
}

// Dims returns the linear layer's input and output widths.
func (l *Linear) Dims() (in, out int) { return l.in, l.out }

// Eps returns the variance-stabilizing epsilon used at inference.
func (b *BatchNorm2D) Eps() float32 { return b.eps }

// Window returns the pooling window edge and stride.
func (m *MaxPool2D) Window() (k, stride int) { return m.k, m.stride }
