package tensor

import "fmt"

// ConvOpts describes a 2-D convolution: square kernel, symmetric stride and
// zero padding.
type ConvOpts struct {
	Stride  int
	Padding int
}

// ConvOutSize returns the output spatial size for input size in, kernel k,
// stride s, padding p.
func ConvOutSize(in, k, s, p int) int {
	if s < 1 {
		s = 1
	}
	return (in+2*p-k)/s + 1
}

// Im2Col unrolls input x (N,C,H,W) into a matrix of shape
// (N·outH·outW, C·kh·kw) so convolution becomes a matmul with the reshaped
// weight (outC, C·kh·kw).
func Im2Col(x *Tensor, kh, kw int, o ConvOpts) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	s, p := o.Stride, o.Padding
	if s < 1 {
		s = 1
	}
	oh := ConvOutSize(h, kh, s, p)
	ow := ConvOutSize(w, kw, s, p)
	cols := New(n*oh*ow, c*kh*kw)
	xd, cd := x.Data, cols.Data
	rowLen := c * kh * kw
	parallelFor(n*oh*ow, func(rs, re int) {
		for r := rs; r < re; r++ {
			b := r / (oh * ow)
			rem := r % (oh * ow)
			oy := rem / ow
			ox := rem % ow
			dst := cd[r*rowLen : (r+1)*rowLen]
			di := 0
			for ch := 0; ch < c; ch++ {
				base := (b*c + ch) * h * w
				for ky := 0; ky < kh; ky++ {
					iy := oy*s - p + ky
					if iy < 0 || iy >= h {
						for kx := 0; kx < kw; kx++ {
							dst[di] = 0
							di++
						}
						continue
					}
					rowBase := base + iy*w
					for kx := 0; kx < kw; kx++ {
						ix := ox*s - p + kx
						if ix < 0 || ix >= w {
							dst[di] = 0
						} else {
							dst[di] = xd[rowBase+ix]
						}
						di++
					}
				}
			}
		}
	})
	return cols
}

// Col2Im scatters a column matrix (as produced by Im2Col) back into an input
// gradient of shape (N,C,H,W), accumulating overlaps. It is the adjoint of
// Im2Col and is used by convolution backward passes.
func Col2Im(cols *Tensor, n, c, h, w, kh, kw int, o ConvOpts) *Tensor {
	s, p := o.Stride, o.Padding
	if s < 1 {
		s = 1
	}
	oh := ConvOutSize(h, kh, s, p)
	ow := ConvOutSize(w, kw, s, p)
	out := New(n, c, h, w)
	cd, od := cols.Data, out.Data
	rowLen := c * kh * kw
	// Parallelise over batch: images don't overlap in the output buffer.
	parallelFor(n, func(bs, be int) {
		for b := bs; b < be; b++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					r := (b*oh+oy)*ow + ox
					src := cd[r*rowLen : (r+1)*rowLen]
					si := 0
					for ch := 0; ch < c; ch++ {
						base := (b*c + ch) * h * w
						for ky := 0; ky < kh; ky++ {
							iy := oy*s - p + ky
							if iy < 0 || iy >= h {
								si += kw
								continue
							}
							rowBase := base + iy*w
							for kx := 0; kx < kw; kx++ {
								ix := ox*s - p + kx
								if ix >= 0 && ix < w {
									od[rowBase+ix] += src[si]
								}
								si++
							}
						}
					}
				}
			}
		}
	})
	return out
}

// Conv2D computes a standard convolution of x (N,C,H,W) with weight
// (outC, C, kh, kw) and optional bias (outC), returning (N,outC,outH,outW).
// 1×1 stride-1 convolutions take a direct pointwise path (no im2col copy, no
// transpose back to NCHW); they dominate inverted-bottleneck networks, and
// that path is the serving kernel for every expand, project and head conv
// (supernet's Exec* methods). The training ops in nn keep the im2col route
// because their backward pass reuses the column matrix.
func Conv2D(x, weight, bias *Tensor, o ConvOpts) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outC, wc, kh, kw := weight.Shape[0], weight.Shape[1], weight.Shape[2], weight.Shape[3]
	if wc != c {
		panic(fmt.Sprintf("tensor: Conv2D channels %d != weight %d", c, wc))
	}
	s := o.Stride
	if s < 1 {
		s = 1
	}
	if kh == 1 && kw == 1 && s == 1 && o.Padding == 0 {
		return conv1x1(x, weight, bias)
	}
	oh := ConvOutSize(h, kh, s, o.Padding)
	ow := ConvOutSize(w, kw, s, o.Padding)
	cols := Im2Col(x, kh, kw, o)          // (N·oh·ow, C·kh·kw)
	wmat := weight.Reshape(outC, c*kh*kw) // (outC, C·kh·kw)
	prod := MatMulTransB(cols, wmat)      // (N·oh·ow, outC)
	out := New(n, outC, oh, ow)
	pd, od := prod.Data, out.Data
	parallelFor(n*outC, func(rs, re int) {
		for r := rs; r < re; r++ {
			b := r / outC
			oc := r % outC
			var bv float32
			if bias != nil {
				bv = bias.Data[oc]
			}
			dst := od[r*oh*ow : (r+1)*oh*ow]
			for i := 0; i < oh*ow; i++ {
				dst[i] = pd[(b*oh*ow+i)*outC+oc] + bv
			}
		}
	})
	return out
}

// conv1x1 computes a pointwise convolution as W (outC×C) times the channel
// matrix of each image — no im2col materialization.
func conv1x1(x, weight, bias *Tensor) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outC := weight.Shape[0]
	plane := h * w
	out := New(n, outC, h, w)
	wd := weight.Data // (outC, C) row-major (kh=kw=1)
	parallelFor(n*outC, func(rs, re int) {
		for r := rs; r < re; r++ {
			b := r / outC
			oc := r % outC
			dst := out.Data[r*plane : (r+1)*plane]
			var bv float32
			if bias != nil {
				bv = bias.Data[oc]
			}
			for i := range dst {
				dst[i] = bv
			}
			wrow := wd[oc*c : (oc+1)*c]
			for ch := 0; ch < c; ch++ {
				wv := wrow[ch]
				if wv == 0 {
					continue
				}
				src := x.Data[(b*c+ch)*plane : (b*c+ch+1)*plane]
				for i := range dst {
					dst[i] += wv * src[i]
				}
			}
		}
	})
	return out
}

// Conv2DNaive is a direct reference implementation used by tests to validate
// the im2col path. It is O(N·outC·oh·ow·C·kh·kw) with no parallelism.
func Conv2DNaive(x, weight, bias *Tensor, o ConvOpts) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outC, kh, kw := weight.Shape[0], weight.Shape[2], weight.Shape[3]
	s, p := o.Stride, o.Padding
	if s < 1 {
		s = 1
	}
	oh := ConvOutSize(h, kh, s, p)
	ow := ConvOutSize(w, kw, s, p)
	out := New(n, outC, oh, ow)
	for b := 0; b < n; b++ {
		for oc := 0; oc < outC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float32
					if bias != nil {
						acc = bias.Data[oc]
					}
					for ch := 0; ch < c; ch++ {
						for ky := 0; ky < kh; ky++ {
							iy := oy*s - p + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ox*s - p + kx
								if ix < 0 || ix >= w {
									continue
								}
								acc += x.At(b, ch, iy, ix) * weight.At(oc, ch, ky, kx)
							}
						}
					}
					out.Set(acc, b, oc, oy, ox)
				}
			}
		}
	}
	return out
}

// DepthwiseConv2D convolves each channel of x (N,C,H,W) with its own kernel
// from weight (C, 1, kh, kw), plus optional bias (C).
func DepthwiseConv2D(x, weight, bias *Tensor, o ConvOpts) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if weight.Shape[0] != c {
		panic(fmt.Sprintf("tensor: DepthwiseConv2D channels %d != weight %d", c, weight.Shape[0]))
	}
	kh, kw := weight.Shape[2], weight.Shape[3]
	s, p := o.Stride, o.Padding
	if s < 1 {
		s = 1
	}
	oh := ConvOutSize(h, kh, s, p)
	ow := ConvOutSize(w, kw, s, p)
	out := New(n, c, oh, ow)
	xd, wd, od := x.Data, weight.Data, out.Data
	parallelFor(n*c, func(rs, re int) {
		for r := rs; r < re; r++ {
			ch := r % c
			var bv float32
			if bias != nil {
				bv = bias.Data[ch]
			}
			in := xd[r*h*w : (r+1)*h*w]
			ker := wd[ch*kh*kw : (ch+1)*kh*kw]
			dst := od[r*oh*ow : (r+1)*oh*ow]
			for oy := 0; oy < oh; oy++ {
				iy0 := oy*s - p
				kyLo, kyHi := tapRange(iy0, kh, h)
				for ox := 0; ox < ow; ox++ {
					ix0 := ox*s - p
					kxLo, kxHi := tapRange(ix0, kw, w)
					acc := bv
					if kxLo == kxHi {
						// The window lies wholly in the padding.
						dst[oy*ow+ox] = acc
						continue
					}
					for ky := kyLo; ky < kyHi; ky++ {
						row := in[(iy0+ky)*w+ix0+kxLo : (iy0+ky)*w+ix0+kxHi]
						kr := ker[ky*kw+kxLo : ky*kw+kxHi]
						for i, v := range row {
							acc += v * kr[i]
						}
					}
					dst[oy*ow+ox] = acc
				}
			}
		}
	})
	return out
}

// tapRange returns the kernel taps [lo, hi) of a k-wide window starting at
// input coordinate i0 that land inside [0, n); taps outside read zero padding
// and are skipped. It returns lo == hi == 0 when no tap is in range.
func tapRange(i0, k, n int) (lo, hi int) {
	lo, hi = 0, k
	if i0 < 0 {
		lo = -i0
	}
	if i0+k > n {
		hi = n - i0
	}
	if hi <= lo {
		return 0, 0
	}
	return lo, hi
}

// AvgPoolGlobal reduces (N,C,H,W) to (N,C) by averaging each channel plane.
func AvgPoolGlobal(x *Tensor) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := New(n, c)
	hw := float32(h * w)
	parallelFor(n*c, func(rs, re int) {
		for r := rs; r < re; r++ {
			var s float32
			for _, v := range x.Data[r*h*w : (r+1)*h*w] {
				s += v
			}
			out.Data[r] = s / hw
		}
	})
	return out
}

// MaxPool2D applies k×k max pooling with stride s.
func MaxPool2D(x *Tensor, k, s int) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if s < 1 {
		s = k
	}
	oh := (h-k)/s + 1
	ow := (w-k)/s + 1
	out := New(n, c, oh, ow)
	parallelFor(n*c, func(rs, re int) {
		for r := rs; r < re; r++ {
			in := x.Data[r*h*w : (r+1)*h*w]
			dst := out.Data[r*oh*ow : (r+1)*oh*ow]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					m := float32(math32NegInf)
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							v := in[(oy*s+ky)*w+ox*s+kx]
							if v > m {
								m = v
							}
						}
					}
					dst[oy*ow+ox] = m
				}
			}
		}
	})
	return out
}

const math32NegInf = float32(-3.4e38)

// Pad2D zero-pads the spatial dims of x (N,C,H,W) by p on every side.
func Pad2D(x *Tensor, p int) *Tensor {
	if p == 0 {
		return x.Clone()
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := New(n, c, h+2*p, w+2*p)
	ow := w + 2*p
	parallelFor(n*c, func(rs, re int) {
		for r := rs; r < re; r++ {
			src := x.Data[r*h*w : (r+1)*h*w]
			dstBase := r * (h + 2*p) * ow
			for y := 0; y < h; y++ {
				copy(out.Data[dstBase+(y+p)*ow+p:dstBase+(y+p)*ow+p+w], src[y*w:(y+1)*w])
			}
		}
	})
	return out
}

// CropSpatial extracts the spatial window [y0,y0+ch)×[x0,x0+cw) from x
// (N,C,H,W), returning (N,C,ch,cw). Out-of-range regions read as zero, which
// lets callers implement FDSP zero-padded tiles directly.
func CropSpatial(x *Tensor, y0, x0, ch, cw int) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := New(n, c, ch, cw)
	parallelFor(n*c, func(rs, re int) {
		for r := rs; r < re; r++ {
			src := x.Data[r*h*w : (r+1)*h*w]
			dst := out.Data[r*ch*cw : (r+1)*ch*cw]
			for y := 0; y < ch; y++ {
				iy := y0 + y
				if iy < 0 || iy >= h {
					continue
				}
				for xx := 0; xx < cw; xx++ {
					ix := x0 + xx
					if ix < 0 || ix >= w {
						continue
					}
					dst[y*cw+xx] = src[iy*w+ix]
				}
			}
		}
	})
	return out
}

// PasteSpatial writes tile (N,C,th,tw) into dst (N,C,H,W) at offset (y0,x0),
// clipping at the borders. It is the inverse of CropSpatial for in-range
// regions and is used to reassemble spatially partitioned outputs.
func PasteSpatial(dst, tile *Tensor, y0, x0 int) {
	n, c, h, w := dst.Shape[0], dst.Shape[1], dst.Shape[2], dst.Shape[3]
	th, tw := tile.Shape[2], tile.Shape[3]
	parallelFor(n*c, func(rs, re int) {
		for r := rs; r < re; r++ {
			src := tile.Data[r*th*tw : (r+1)*th*tw]
			d := dst.Data[r*h*w : (r+1)*h*w]
			for y := 0; y < th; y++ {
				dy := y0 + y
				if dy < 0 || dy >= h {
					continue
				}
				for x := 0; x < tw; x++ {
					dx := x0 + x
					if dx < 0 || dx >= w {
						continue
					}
					d[dy*w+dx] = src[y*tw+x]
				}
			}
		}
	})
}

// BilinearResize resizes x (N,C,H,W) to (N,C,outH,outW) with bilinear
// interpolation; used for elastic input resolution.
func BilinearResize(x *Tensor, outH, outW int) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if outH == h && outW == w {
		return x.Clone()
	}
	out := New(n, c, outH, outW)
	sy := float32(h) / float32(outH)
	sx := float32(w) / float32(outW)
	parallelFor(n*c, func(rs, re int) {
		for r := rs; r < re; r++ {
			src := x.Data[r*h*w : (r+1)*h*w]
			dst := out.Data[r*outH*outW : (r+1)*outH*outW]
			for oy := 0; oy < outH; oy++ {
				fy := (float32(oy)+0.5)*sy - 0.5
				y0 := int(fy)
				if fy < 0 {
					fy, y0 = 0, 0
				}
				y1 := y0 + 1
				if y1 >= h {
					y1 = h - 1
				}
				wy := fy - float32(y0)
				for ox := 0; ox < outW; ox++ {
					fx := (float32(ox)+0.5)*sx - 0.5
					x0 := int(fx)
					if fx < 0 {
						fx, x0 = 0, 0
					}
					x1 := x0 + 1
					if x1 >= w {
						x1 = w - 1
					}
					wx := fx - float32(x0)
					v00 := src[y0*w+x0]
					v01 := src[y0*w+x1]
					v10 := src[y1*w+x0]
					v11 := src[y1*w+x1]
					top := v00 + (v01-v00)*wx
					bot := v10 + (v11-v10)*wx
					dst[oy*outW+ox] = top + (bot-top)*wy
				}
			}
		}
	})
	return out
}
