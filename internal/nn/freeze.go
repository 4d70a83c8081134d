package nn

// Frozen inference layers: immutable float32 (or int8) snapshots of the
// trained float64 layers, shaped for the blocked kernels in kernels.go.
// Freezing separates weights from state — a FrozenDense/InferLSTM holds
// only weights and is safe to share across any number of goroutines, while
// every generation engine owns an InferLSTMBatchState — which is what lets
// the serving path run on one frozen snapshot with zero cloning.

// FrozenDense is an immutable dense weight block with either a float32 or
// an int8 backend. Exactly one of W and Q is set; Bias (optional) is kept
// in float32 for both backends — quantizing a bias saves nothing and
// costs accuracy, since it is added once per output, not multiplied
// per column.
//
// The f32 backend additionally carries a column-major mirror (WT) with
// rows zero-padded to the 8-lane kernel width, plus the bias pre-padded
// to match (BiasPad): that is the layout GemvColF32's AVX kernel wants,
// and the zero padding means the kernel can always write full register
// tiles into a y of at least PadRows entries — the pad rows compute
// 0·x+0 and land beyond y[:Rows], where callers never look.
type FrozenDense struct {
	Rows, Cols int
	PadRows    int       // Rows rounded up to the 8-lane kernel width
	W          []float32 // row-major f32 weights (nil when quantized)
	WT         []float32 // column-major [Cols][PadRows] mirror (f32 only)
	BiasPad    []float32 // [PadRows] bias, zeros where absent (f32 only)
	Q          []int8    // int8 backend (nil when f32)
	RowScale   []float32 // per-output-row dequantization scales (int8 only)
	Bias       []float32 // len Rows, or nil
}

// Apply computes y = W·x (+ bias). xq is caller scratch of at least Cols
// for the int8 backend's dynamically quantized activations; the f32
// backend ignores it. The f32 backend takes the blocked column-major
// kernel whenever the caller's y has room for the padded rows, which
// every hot-path scratch buffer does; a short y falls back to the
// row-major kernel and stays correct.
func (d *FrozenDense) Apply(x, y []float32, xq []int8) {
	if d.W == nil {
		d.applyQuantized(xq, QuantizeVecInt8(x[:d.Cols], xq), y)
		return
	}
	if len(y) >= d.PadRows {
		GemvColF32(d.WT, d.PadRows, d.Cols, x, d.BiasPad, y)
		return
	}
	MatVecF32(d.W, d.Rows, d.Cols, x, y)
	if d.Bias != nil {
		for i, b := range d.Bias[:d.Rows] {
			y[i] += b
		}
	}
}

// applyQuantized is the int8 backend's Apply on an input already quantized
// to xq with scale xScale, for callers that feed one input to several
// blocks.
func (d *FrozenDense) applyQuantized(xq []int8, xScale float32, y []float32) {
	matVecInt8(d.Q, d.Rows, d.Cols, xq, d.RowScale, xScale, d.Bias, y)
}

// ApplyBatch is Apply over nb lanes: y_b = W·x_b (+ bias), lane b's input
// at x[b*xStride:] and output at y[b*yStride:]. The f32 backend runs one
// GEMM that streams the weights once for all lanes and requires yStride >=
// PadRows (every caller sizes its planes that way); its per-row
// accumulation order is GemvColF32's, so each lane is bit-identical to a
// standalone Apply. The int8 backend IS a standalone Apply per lane, with
// xq as its activation scratch (the f32 backend never touches xq).
func (d *FrozenDense) ApplyBatch(x []float32, xStride int, y []float32, yStride, nb int, xq []int8) {
	if d.W != nil {
		if yStride < d.PadRows {
			panic("nn: ApplyBatch yStride below PadRows")
		}
		GemmColF32(d.WT, d.PadRows, d.Cols, x, xStride, d.BiasPad, y, yStride, nb)
		return
	}
	for b := 0; b < nb; b++ {
		d.Apply(x[b*xStride:], y[b*yStride:], xq)
	}
}

// newFrozenDense builds a FrozenDense from float64 row-major weights,
// quantizing to int8 when quant is set.
func newFrozenDense(w64 []float64, rows, cols int, bias64 []float64, quant bool) *FrozenDense {
	if len(w64) < rows*cols {
		panic("nn: newFrozenDense weight size mismatch")
	}
	d := &FrozenDense{Rows: rows, Cols: cols, PadRows: pad8(rows)}
	w := make([]float32, rows*cols)
	for i := range w {
		w[i] = float32(w64[i])
	}
	if bias64 != nil {
		d.Bias = make([]float32, rows)
		for i := range d.Bias {
			d.Bias[i] = float32(bias64[i])
		}
	}
	if quant {
		d.Q, d.RowScale = QuantizeRowsInt8(w, rows, cols)
	} else {
		d.W = w
		d.WT = PackColMajor(w, rows, cols)
		d.BiasPad = make([]float32, d.PadRows)
		copy(d.BiasPad, d.Bias)
	}
	return d
}

// FreezeLinear snapshots a Linear layer for inference.
func FreezeLinear(l *Linear, quant bool) *FrozenDense {
	return newFrozenDense(l.W.W, l.Out, l.In, l.B.W, quant)
}

// InferLSTM is the frozen counterpart of LSTM. The gate weights are packed
// [4H × (In+H)] over xh = [x; h] with the trained layout's per-row bias
// column split out into the dense's float32 Bias (biases must not be
// quantized away with the weights), and restacked [i; f; o; g] — sigmoid
// gates first. The stack is frozen as two row blocks, the sigmoid block
// [i; f; o] (3H rows) and the tanh block g (H rows), so each activation
// runs as ONE vector call over a contiguous multi-lane plane. Per-row f32
// packing and per-row int8 quantization are both row-independent, so the
// split changes no output bit.
type InferLSTM struct {
	In, Hidden int
	AH, AC     float32
	Noise      bool
	GatesSig   *FrozenDense // rows = 3H stacked [i; f; o], cols = In+H
	GatesG     *FrozenDense // rows = H (g), cols = In+H
}

// FreezeLSTM repacks a trained LSTM's gate weights for the frozen kernels.
func FreezeLSTM(l *LSTM, quant bool) *InferLSTM {
	H := l.Hidden
	srcCols := l.In + H + 1
	dstCols := l.In + H
	w64 := make([]float64, 4*H*dstCols)
	bias64 := make([]float64, 4*H)
	// Trained gate order is [i; f; g; o]; the frozen stack wants
	// [i; f; o; g].
	for dstGate, srcGate := range [4]int{0, 1, 3, 2} {
		for j := 0; j < H; j++ {
			dst := dstGate*H + j
			src := l.W.W[(srcGate*H+j)*srcCols:]
			copy(w64[dst*dstCols:(dst+1)*dstCols], src[:dstCols])
			bias64[dst] = src[dstCols]
		}
	}
	return &InferLSTM{
		In: l.In, Hidden: H,
		AH: float32(l.AH), AC: float32(l.AC), Noise: l.NoiseActive,
		GatesSig: newFrozenDense(w64[:3*H*dstCols], 3*H, dstCols, bias64[:3*H], quant),
		GatesG:   newFrozenDense(w64[3*H*dstCols:], H, dstCols, bias64[3*H:], quant),
	}
}

// InferLSTMBatchState holds the recurrent state and step scratch for up to
// nb lockstep generation lanes over one shared InferLSTM. Every per-lane
// buffer is a strided plane — lane b's slice starts at b×stride — so
// StepBatch can hand whole planes to the batched matmul and run each gate
// activation as a single vector call across all lanes, instead of nb short
// calls that each pay the kernel's setup cost. Each lane's H aliases the
// tail of its xh, so the recurrent input needs no copy per step, and C and
// the activation scratch carry zero padding out to the kernel lane width,
// which is what lets every activation pass run as a full-width vector call
// with no scalar tail.
type InferLSTMBatchState struct {
	nb, in, hid int
	sx, ph, ps  int       // lane strides: xh, pad8(H), pad8(3H)
	xh          []float32 // [nb][In+H] packed [x; h]; H(b) aliases the tail
	cp          []float32 // [nb][pad8(H)] cell state, pad rows stay zero
	tc          []float32 // [nb][pad8(H)] tanh(C) scratch
	gt          []float32 // [nb][pad8(H)] tanh(g) scratch
	zsig        []float32 // [nb][pad8(3H)] [i; f; o] pre-activations
	zg          []float32 // [nb][pad8(H)] g pre-activations
	xq          []int8    // [In+H] int8 backend activation scratch

	// One step's modulation work: the vectors the sweep runs over — up to
	// two, h and C, per live lane — with their intensities, and their
	// centred uniforms back to back in the same order.
	mv [][]float32
	ma []float32
	un []float32 // [2nb][H]
}

// NewBatchState allocates a zeroed nb-lane batch state for this LSTM.
func (l *InferLSTM) NewBatchState(nb int) *InferLSTMBatchState {
	H := l.Hidden
	st := &InferLSTMBatchState{
		nb: nb, in: l.In, hid: H,
		sx: l.In + H, ph: pad8(H), ps: pad8(3 * H),
	}
	st.xh = make([]float32, nb*st.sx)
	st.cp = make([]float32, nb*st.ph)
	st.tc = make([]float32, nb*st.ph)
	st.gt = make([]float32, nb*st.ph)
	st.zsig = make([]float32, nb*st.ps)
	st.zg = make([]float32, nb*st.ph)
	st.xq = make([]int8, st.sx)
	st.mv = make([][]float32, 0, 2*nb)
	st.ma = make([]float32, 0, 2*nb)
	st.un = make([]float32, 2*nb*H)
	return st
}

// Input returns the slice the caller fills with lane b's step input before
// StepBatch — writing in place avoids a copy per step.
func (st *InferLSTMBatchState) Input(b int) []float32 {
	return st.xh[b*st.sx : b*st.sx+st.in]
}

// H returns lane b's hidden state (aliases the tail of the lane's xh).
func (st *InferLSTMBatchState) H(b int) []float32 {
	o := b*st.sx + st.in
	return st.xh[o : o+st.hid : o+st.hid]
}

// HPlane returns the packed hidden-state plane and its lane stride (lane
// b's H starts at b*stride), shaped for feeding a downstream
// FrozenDense.ApplyBatch without copying.
func (st *InferLSTMBatchState) HPlane() ([]float32, int) {
	return st.xh[st.in:], st.sx
}

// C returns lane b's cell state.
func (st *InferLSTMBatchState) C(b int) []float32 {
	o := b * st.ph
	return st.cp[o : o+st.hid : o+st.hid]
}

// ResetLane zeroes one lane's recurrent state for reuse by a new job.
func (st *InferLSTMBatchState) ResetLane(b int) {
	h, c := st.H(b), st.C(b)
	for i := range h {
		h[i] = 0
		c[i] = 0
	}
}

// StepBatch advances nb lanes one timestep in lockstep, mirroring
// LSTM.Step's float64 semantics in float32: two matmuls (the [i; f; o]
// sigmoid block and the g tanh block — f32 streams each block's weights once
// for the whole batch, int8 quantizes each lane's input once for both
// blocks), one vectorized tanh / sigmoid pass per activation over the full
// multi-lane plane, the per-lane cell/hidden updates, then the stochastic
// modulation of every live lane in one sweep. active[b] false freezes lane
// b: the f32 GEMM still computes its gate pre-activations (cheaper run dense
// than masked, and the results are never read) but its C/H stay untouched
// and its source draws nothing, so a retired lane's state and RNG schedule
// are exactly as its last real step left them. active == nil means all
// lanes live. A lane's
// arithmetic never depends on nb or on its neighbours, so its H/C after the
// call are bit-identical to stepping the same inputs, state, and source
// alone at nb = 1. srcs may be nil when the layer has no noise.
func (l *InferLSTM) StepBatch(st *InferLSTMBatchState, nb int, active []bool, srcs []*LaneSource) {
	if nb > st.nb {
		panic("nn: StepBatch lane count exceeds state capacity")
	}
	H := l.Hidden
	if l.GatesSig.Q != nil {
		// Both gate blocks read the same [x; h], so a lane's input is
		// quantized once and shared. The int8 matmul is per lane, which
		// leaves nothing to gain from computing a frozen lane's gates.
		for b := 0; b < nb; b++ {
			if active != nil && !active[b] {
				continue
			}
			xScale := QuantizeVecInt8(st.xh[b*st.sx:(b+1)*st.sx], st.xq)
			l.GatesSig.applyQuantized(st.xq, xScale, st.zsig[b*st.ps:])
			l.GatesG.applyQuantized(st.xq, xScale, st.zg[b*st.ph:])
		}
	} else {
		l.GatesSig.ApplyBatch(st.xh, st.sx, st.zsig, st.ps, nb, nil)
		l.GatesG.ApplyBatch(st.xh, st.sx, st.zg, st.ph, nb, nil)
	}
	// One activation call per plane, on full 8-lane blocks. Pad lanes and
	// frozen int8 lanes hold matmul zeros (f32) or stale scratch; the
	// activations write dead values there that nothing reads.
	TanhVecF32(st.gt[:nb*st.ph], st.zg[:nb*st.ph])
	SigmoidVecF32(st.zsig[:nb*st.ps])
	for b := 0; b < nb; b++ {
		if active != nil && !active[b] {
			continue
		}
		z := st.zsig[b*st.ps:]
		zi, zf := z[:H], z[H:2*H]
		gt := st.gt[b*st.ph:]
		C := st.C(b)
		for j := 0; j < H; j++ {
			C[j] = zf[j]*C[j] + zi[j]*gt[j]
		}
	}
	TanhVecF32(st.tc[:nb*st.ph], st.cp[:nb*st.ph])
	for b := 0; b < nb; b++ {
		if active != nil && !active[b] {
			continue
		}
		zo := st.zsig[b*st.ps+2*H : b*st.ps+3*H]
		tc := st.tc[b*st.ph:]
		h := st.H(b)
		for j := 0; j < H; j++ {
			h[j] = zo[j] * tc[j]
		}
	}
	if l.Noise && (l.AH > 0 || l.AC > 0) {
		l.modulate(st, nb, active, srcs)
	}
}

// modulate is the stochastic layer of one step (paper §A.2), draw then
// sweep. Each live lane's uniforms come off its own source in the order the
// float64 path draws them — H for h, then H for C, a zero intensity drawing
// nothing — in one bulk fill per lane; then every live h and C goes through
// ModulateF32Sweep together. Which vectors share a sweep changes no bit of
// any of them, so the lane's result is the same at every width.
func (l *InferLSTM) modulate(st *InferLSTMBatchState, nb int, active []bool, srcs []*LaneSource) {
	H := l.Hidden
	per := 0 // vectors per lane
	if l.AH > 0 {
		per++
	}
	if l.AC > 0 {
		per++
	}
	mv, ma := st.mv[:0], st.ma[:0]
	for b := 0; b < nb; b++ {
		if active != nil && !active[b] {
			continue
		}
		srcs[b].CentredF32s(st.un[len(mv)*H : (len(mv)+per)*H])
		if l.AH > 0 {
			mv, ma = append(mv, st.H(b)), append(ma, l.AH)
		}
		if l.AC > 0 {
			mv, ma = append(mv, st.C(b)), append(ma, l.AC)
		}
	}
	ModulateF32Sweep(mv, st.un, ma)
}
