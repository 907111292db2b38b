package supernet

import (
	"fmt"
	"math"

	"murmuration/internal/tensor"
)

// The Exec* methods are the runtime executor's entry points: they run one
// piece of the network (stem, a single block on a single tile, or the head)
// in inference mode against the in-memory shared weights. The distributed
// scheduler composes them across devices; quantization of inputs happens on
// the wire, not here.
//
// They run their own inference kernels rather than the training ops that
// Forward uses: 1×1 convolutions take tensor.Conv2D's direct pointwise path
// (no im2col copy), batch norm normalises in place with hard-swish fused into
// the same pass, and the SE gate, channel scale and residual add run in
// place. Nothing builds a backward cache. Batch norm still uses batch
// statistics with nn.BatchNormFwd's arithmetic, so ExecBlock is bit-identical
// to Forward's tile pass. Every intermediate is owned by the call; no Exec*
// method writes into its caller's input tensor.

// ExecStem runs the stem on x (N,C,H,W at the config resolution).
func (s *Supernet) ExecStem(x *tensor.Tensor) *tensor.Tensor {
	y := tensor.Conv2D(x, s.stemW.W, s.stemB.W, tensor.ConvOpts{Stride: 2, Padding: 1})
	bnInfer(s.stemBN, y, true)
	return y
}

// ExecBlock runs MBConv block (stage, index) on one input tile under an
// elastic setting, including the residual shortcut when applicable. The
// caller is responsible for spatial tiling; the tile is treated as a full
// FDSP tile (zero padding at its borders).
func (s *Supernet) ExecBlock(stage, index int, x *tensor.Tensor, ls LayerSetting) (*tensor.Tensor, error) {
	if stage < 0 || stage >= len(s.blocks) {
		return nil, fmt.Errorf("supernet: stage %d out of range", stage)
	}
	if index < 0 || index >= len(s.blocks[stage]) {
		return nil, fmt.Errorf("supernet: block %d out of range in stage %d", index, stage)
	}
	b := s.blocks[stage][index]
	if x.Shape[1] != b.inC {
		return nil, fmt.Errorf("supernet: block s%d.b%d wants %d channels, got %d",
			stage, index, b.inC, x.Shape[1])
	}
	if x.Shape[2]%b.stride != 0 || x.Shape[3]%b.stride != 0 {
		return nil, fmt.Errorf("supernet: tile %dx%d not divisible by stride %d",
			x.Shape[2], x.Shape[3], b.stride)
	}
	y := tileInfer(b, x, ls)
	if b.stride == 1 && b.inC == b.outC {
		y.Add(x)
	}
	return y, nil
}

// BlockAt maps an active-layer index of cfg to its (stage, blockIndex) and
// stride. It mirrors the stage-major layer ordering of Config.Layers.
func (a *Arch) BlockAt(cfg *Config, layer int) (stage, index, stride int, err error) {
	if layer < 0 || layer >= len(cfg.Layers) {
		return 0, 0, 0, fmt.Errorf("supernet: layer %d out of range", layer)
	}
	idx := layer
	for si := range a.Stages {
		if idx < cfg.Depths[si] {
			stride = 1
			if idx == 0 {
				stride = a.Stages[si].Stride
			}
			return si, idx, stride, nil
		}
		idx -= cfg.Depths[si]
	}
	return 0, 0, 0, fmt.Errorf("supernet: layer %d beyond active depth", layer)
}

// ExecHead runs the final conv + pooling + classifier on the trunk output.
func (s *Supernet) ExecHead(x *tensor.Tensor) *tensor.Tensor {
	cin := x.Shape[1]
	headW := sliceConv1x1(s.headW.W, s.Arch.HeadChannels, cin)
	y := tensor.Conv2D(x, headW, s.headB.W, tensor.ConvOpts{Stride: 1, Padding: 0})
	bnInfer(s.headBN, y, true)
	return linearInfer(tensor.AvgPoolGlobal(y), s.clsW.W, s.clsB.W.Data)
}

// tileInfer is tileFwd's inference twin: the same expand → depthwise → (SE)
// → project pipeline with the same per-element arithmetic, run through
// cache-free kernels that update each fresh activation in place.
func tileInfer(b *mbBlock, xt *tensor.Tensor, ls LayerSetting) *tensor.Tensor {
	hidden := b.inC * ls.Expand
	if hidden > b.maxHidden {
		hidden = b.maxHidden
	}
	pw := tensor.ConvOpts{Stride: 1, Padding: 0}

	y := tensor.Conv2D(xt, sliceConv1x1(b.expandW.W, hidden, b.inC), nil, pw)
	bnInfer(b.bn1, y, true)

	k := ls.Kernel
	y = tensor.DepthwiseConv2D(y, sliceDW(b.dwW.W, hidden, k), nil,
		tensor.ConvOpts{Stride: b.stride, Padding: k / 2})
	bnInfer(b.bn2, y, true)

	if b.se {
		seC := b.maxHidden / 4
		if seC < 1 {
			seC = 1
		}
		z := linearInfer(tensor.AvgPoolGlobal(y), sliceLinear(b.seW1.W, seC, hidden), b.seB1.W.Data)
		for i, v := range z.Data {
			if !(v > 0) {
				z.Data[i] = 0
			}
		}
		g := linearInfer(z, sliceLinear(b.seW2.W, hidden, seC), b.seB2.W.Data[:hidden])
		plane := y.Shape[2] * y.Shape[3]
		for r, v := range g.Data {
			gate := relu6(v+3) / 6
			p := y.Data[r*plane : (r+1)*plane]
			for i := range p {
				p[i] *= gate
			}
		}
	}

	y = tensor.Conv2D(y, sliceConv1x1(b.projW.W, b.outC, hidden), nil, pw)
	bnInfer(b.bn3, y, false)
	return y
}

// bnInfer batch-normalises x (N,C,H,W) in place over its C channels with
// the leading C entries of bn's affine parameters, then applies hard-swish
// when act is set. It uses batch statistics with exactly nn.BatchNormFwd's
// arithmetic (float64 sums, eps 1e-5), as bnFwd does, but stores no x̂ and
// touches no running statistics.
func bnInfer(bn *bnParams, x *tensor.Tensor, act bool) {
	n, c := x.Shape[0], x.Shape[1]
	plane := x.Shape[2] * x.Shape[3]
	cnt := float32(n * plane)
	const eps = float32(1e-5)
	gamma, beta := bn.gamma.W.Data[:c], bn.beta.W.Data[:c]
	for cc := 0; cc < c; cc++ {
		var sum float64
		for bi := 0; bi < n; bi++ {
			for _, v := range x.Data[(bi*c+cc)*plane : (bi*c+cc+1)*plane] {
				sum += float64(v)
			}
		}
		mean := float32(sum / float64(cnt))
		var vsum float64
		for bi := 0; bi < n; bi++ {
			for _, v := range x.Data[(bi*c+cc)*plane : (bi*c+cc+1)*plane] {
				d := float64(v - mean)
				vsum += d * d
			}
		}
		variance := float32(vsum / float64(cnt))
		invStd := float32(1 / math.Sqrt(float64(variance+eps)))
		g, bb := gamma[cc], beta[cc]
		for bi := 0; bi < n; bi++ {
			p := x.Data[(bi*c+cc)*plane : (bi*c+cc+1)*plane]
			for i, v := range p {
				xh := (v - mean) * invStd
				y := xh*g + bb
				if act {
					y = y * relu6(y+3) / 6
				}
				p[i] = y
			}
		}
	}
}

// linearInfer computes x·Wᵀ + b for x (N,in) and W (out,in), adding the
// bias in place as nn.LinearFwd does.
func linearInfer(x, w *tensor.Tensor, b []float32) *tensor.Tensor {
	y := tensor.MatMulTransB(x, w)
	out := w.Shape[0]
	for r := 0; r < x.Shape[0]; r++ {
		row := y.Data[r*out : (r+1)*out]
		for i := range row {
			row[i] += b[i]
		}
	}
	return y
}

// relu6 clamps v to [0, 6]; hard-swish is v·relu6(v+3)/6 and hard-sigmoid
// relu6(v+3)/6, as in nn.
func relu6(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 6 {
		return 6
	}
	return v
}

// TileSplit computes the FDSP tile geometry for an input of spatial size
// (h, w) under grid and stride: per-tile input origins and sizes, in
// row-major tile order. It matches blockFwd's output-space tiling.
func TileSplit(h, w int, grid Partition, stride int) (y0s, x0s, ths, tws []int, err error) {
	if h%stride != 0 || w%stride != 0 {
		return nil, nil, nil, nil, fmt.Errorf("supernet: fmap %dx%d not divisible by stride %d", h, w, stride)
	}
	rows, err := splitSizes(h/stride, grid.Gy)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	cols, err := splitSizes(w/stride, grid.Gx)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	oy := 0
	for _, r := range rows {
		ox := 0
		for _, c := range cols {
			y0s = append(y0s, oy*stride)
			x0s = append(x0s, ox*stride)
			ths = append(ths, r*stride)
			tws = append(tws, c*stride)
			ox += c
		}
		oy += r
	}
	return y0s, x0s, ths, tws, nil
}
