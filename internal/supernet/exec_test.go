package supernet

import (
	"math"
	"math/rand"
	"testing"

	"murmuration/internal/nn"
	"murmuration/internal/tensor"
)

// TestExecComposeMatchesForward verifies that the runtime execution path —
// ExecStem, per-layer TileSplit + ExecBlock (with wire quantization applied
// per tile), ExecHead — reproduces the monolithic Forward exactly. This is
// the invariant that makes distributed execution trustworthy.
func TestExecComposeMatchesForward(t *testing.T) {
	a := TinyArch(4)
	s := New(a, 11)
	rng := rand.New(rand.NewSource(11))
	x := tensor.New(1, 3, 32, 32)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}

	for trial := 0; trial < 5; trial++ {
		cfg := a.RandomConfig(rng)
		want, _, err := s.Forward(x, cfg, false)
		if err != nil {
			t.Fatal(err)
		}

		got, err := execChain(s, cfg, x)
		if err != nil {
			t.Fatal(err)
		}

		if !got.SameShape(want) {
			t.Fatalf("trial %d (%s): shape %v vs %v", trial, cfg, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if d := math.Abs(float64(got.Data[i] - want.Data[i])); d > 1e-5 {
				t.Fatalf("trial %d (%s): logit %d differs %v vs %v", trial, cfg, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// execChain composes the runtime path the scheduler runs for an all-local
// decision: resize, ExecStem, per layer TileSplit + CropSpatial (+ wire
// quantization) + ExecBlock + PasteSpatial, then ExecHead.
func execChain(s *Supernet, cfg *Config, x *tensor.Tensor) (*tensor.Tensor, error) {
	a := s.Arch
	y := tensor.BilinearResize(x, cfg.Resolution, cfg.Resolution)
	y = s.ExecStem(y)
	for layer := 0; layer < cfg.NumLayers(); layer++ {
		ls := cfg.Layers[layer]
		stage, index, stride, err := a.BlockAt(cfg, layer)
		if err != nil {
			return nil, err
		}
		h, w := y.Shape[2], y.Shape[3]
		y0s, x0s, ths, tws, err := TileSplit(h, w, ls.Partition, stride)
		if err != nil {
			return nil, err
		}
		out := tensor.New(y.Shape[0], a.Stages[stage].Width, h/stride, w/stride)
		for ti := range y0s {
			tile := tensor.CropSpatial(y, y0s[ti], x0s[ti], ths[ti], tws[ti])
			if ls.Quant != tensor.Bits32 {
				tile = tensor.Quantize(tile, ls.Quant).Dequantize()
			}
			res, err := s.ExecBlock(stage, index, tile, ls)
			if err != nil {
				return nil, err
			}
			tensor.PasteSpatial(out, res, y0s[ti]/stride, x0s[ti]/stride)
		}
		y = out
	}
	return s.ExecHead(y), nil
}

// perturbedNet builds a tiny supernet whose every parameter, batch-norm
// affines and biases included, carries random noise, so no kernel can pass
// on the identity gamma / zero beta of a fresh initialisation.
func perturbedNet(seed int64) *Supernet {
	s := New(TinyArch(4), seed)
	rng := rand.New(rand.NewSource(seed))
	for _, p := range s.Params() {
		for i := range p.W.Data {
			p.W.Data[i] += 0.3 * (rng.Float32()*2 - 1)
		}
	}
	return s
}

func assertUnchanged(t *testing.T, what string, x, before *tensor.Tensor) {
	t.Helper()
	for i := range before.Data {
		if x.Data[i] != before.Data[i] {
			t.Fatalf("%s wrote into its input at %d", what, i)
		}
	}
}

// relDiff is max|got-want| over max|want|.
func relDiff(got, want *tensor.Tensor) float64 {
	var d, m float64
	for i := range want.Data {
		d = math.Max(d, math.Abs(float64(got.Data[i]-want.Data[i])))
		m = math.Max(m, math.Abs(float64(want.Data[i])))
	}
	return d / m
}

// TestExecMatchesForward pins the inference kernels to the training ops that
// Forward runs. ExecBlock must equal tileFwd plus the residual exactly, for
// every stage/block × kernel × expand (SE and non-SE, stride 1 and 2) at
// batch 1, 3 and 8, on full maps and on the FDSP tiles of 1×2 and 2×2 splits
// at both resolutions. ExecStem and ExecHead must match Forward's ops within
// 1e-6 relative (the head conv now adds its bias first). No Exec* call may
// write into its input.
func TestExecMatchesForward(t *testing.T) {
	s := perturbedNet(21)
	a := s.Arch
	rng := rand.New(rand.NewSource(21))
	grids := []Partition{{Gy: 1, Gx: 1}, {Gy: 1, Gx: 2}, {Gy: 2, Gx: 2}}
	blockCases := 0
	for _, res := range a.Resolutions {
		for _, n := range []int{1, 3, 8} {
			img := randInput(rng, n, a.InChannels, res, res)
			before := img.Clone()
			got := s.ExecStem(img)
			assertUnchanged(t, "ExecStem", img, before)
			want, _ := nn.ConvFwd(img, s.stemW.W, s.stemB.W, tensor.ConvOpts{Stride: 2, Padding: 1})
			want, _ = s.bnFwd(s.stemBN, want, a.StemChannels, false)
			want, _ = nn.HSwishFwd(want)
			if d := relDiff(got, want); d > 1e-6 {
				t.Fatalf("res %d batch %d: ExecStem off by %g relative", res, n, d)
			}

			// Walk the max-depth trunk, feeding each block random maps of
			// its input size.
			fm := got.Shape[2]
			for si, st := range a.Stages {
				for bi := 0; bi < st.MaxDepth; bi++ {
					b := s.blocks[si][bi]
					x := randInput(rng, n, b.inC, fm, fm)
					for _, k := range a.Kernels {
						for _, e := range a.Expands {
							ls := LayerSetting{Kernel: k, Expand: e, Quant: tensor.Bits32}
							for _, g := range grids {
								y0s, x0s, ths, tws, err := TileSplit(fm, fm, g, b.stride)
								if err != nil {
									t.Fatal(err)
								}
								for ti := range y0s {
									tile := tensor.CropSpatial(x, y0s[ti], x0s[ti], ths[ti], tws[ti])
									before := tile.Clone()
									got, err := s.ExecBlock(si, bi, tile, ls)
									if err != nil {
										t.Fatal(err)
									}
									assertUnchanged(t, "ExecBlock", tile, before)
									_, want := s.tileFwd(b, tile, ls, false)
									if b.stride == 1 && b.inC == b.outC {
										want = want.Clone().Add(tile)
									}
									if !got.SameShape(want) {
										t.Fatalf("s%d.b%d: shape %v vs %v", si, bi, got.Shape, want.Shape)
									}
									for i := range want.Data {
										if got.Data[i] != want.Data[i] {
											t.Fatalf("s%d.b%d k%d e%d grid %v tile %d batch %d: element %d = %v, want %v",
												si, bi, k, e, g, ti, n, i, got.Data[i], want.Data[i])
										}
									}
									blockCases++
								}
							}
						}
					}
					fm /= b.stride
				}
			}

			x := randInput(rng, n, a.Stages[len(a.Stages)-1].Width, fm, fm)
			before = x.Clone()
			got = s.ExecHead(x)
			assertUnchanged(t, "ExecHead", x, before)
			headW := sliceConv1x1(s.headW.W, a.HeadChannels, x.Shape[1])
			want, _ = nn.ConvFwd(x, headW, s.headB.W, tensor.ConvOpts{Stride: 1, Padding: 0})
			want, _ = s.bnFwd(s.headBN, want, a.HeadChannels, false)
			want, _ = nn.HSwishFwd(want)
			pooled, _ := nn.GlobalAvgPoolFwd(want)
			want, _ = nn.LinearFwd(pooled, s.clsW.W, s.clsB.W)
			if d := relDiff(got, want); d > 1e-6 {
				t.Fatalf("res %d batch %d: ExecHead off by %g relative", res, n, d)
			}
		}
	}
	// 2 resolutions × 3 batches × 4 blocks × 2 kernels × 2 expands × 7 tiles.
	if blockCases != 672 {
		t.Fatalf("%d block cases, want 672", blockCases)
	}
}

// TestExecChainAllocs pins the allocation count of one max-config Exec chain
// at batch 1 (the L1 rung of the serving ladder). Parallelism 1 keeps every
// kernel inline, so the count is deterministic; a kernel that regains a
// per-op cache or copy fails here.
func TestExecChainAllocs(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(1)
	s := New(TinyArch(4), 1)
	x := randInput(rand.New(rand.NewSource(1)), 1, 3, 32, 32)
	cfg := s.Arch.MaxConfig()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := execChain(s, cfg, x); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per chain", allocs)
	const bound = 258
	if allocs > bound {
		t.Fatalf("%.0f allocs per max-config Exec chain, bound %d", allocs, bound)
	}
}

func TestBlockAtMapping(t *testing.T) {
	a := TinyArch(4)
	cfg := a.MaxConfig() // depths [2,2]
	cases := []struct{ layer, stage, index, stride int }{
		{0, 0, 0, 2},
		{1, 0, 1, 1},
		{2, 1, 0, 2},
		{3, 1, 1, 1},
	}
	for _, c := range cases {
		st, idx, sd, err := a.BlockAt(cfg, c.layer)
		if err != nil {
			t.Fatal(err)
		}
		if st != c.stage || idx != c.index || sd != c.stride {
			t.Fatalf("layer %d: got (%d,%d,%d) want (%d,%d,%d)",
				c.layer, st, idx, sd, c.stage, c.index, c.stride)
		}
	}
	if _, _, _, err := a.BlockAt(cfg, 4); err == nil {
		t.Fatal("out-of-range layer accepted")
	}
	if _, _, _, err := a.BlockAt(cfg, -1); err == nil {
		t.Fatal("negative layer accepted")
	}
}

func TestExecBlockValidation(t *testing.T) {
	a := TinyArch(4)
	s := New(a, 12)
	ls := LayerSetting{Kernel: 3, Expand: 2, Partition: Partition{Gy: 1, Gx: 1}, Quant: tensor.Bits32}
	x := tensor.New(1, 3, 8, 8) // wrong channel count for stage 0 block 0
	if _, err := s.ExecBlock(0, 0, x, ls); err == nil {
		t.Fatal("wrong channel count accepted")
	}
	if _, err := s.ExecBlock(9, 0, tensor.New(1, 8, 8, 8), ls); err == nil {
		t.Fatal("bad stage accepted")
	}
	if _, err := s.ExecBlock(0, 9, tensor.New(1, 8, 8, 8), ls); err == nil {
		t.Fatal("bad block index accepted")
	}
	// Odd tile with stride-2 block.
	if _, err := s.ExecBlock(0, 0, tensor.New(1, 8, 7, 7), ls); err == nil {
		t.Fatal("stride-indivisible tile accepted")
	}
}

func TestTileSplitGeometry(t *testing.T) {
	y0s, x0s, ths, tws, err := TileSplit(16, 16, Partition{Gy: 2, Gx: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(y0s) != 4 {
		t.Fatalf("%d tiles", len(y0s))
	}
	// Tiles must partition the input exactly.
	var area int
	for i := range y0s {
		area += ths[i] * tws[i]
		if y0s[i]%2 != 0 || x0s[i]%2 != 0 {
			t.Fatal("tile origins must be stride-aligned")
		}
	}
	if area != 16*16 {
		t.Fatalf("tiles cover %d pixels, want 256", area)
	}
	// Uneven split: 6 rows into 4 output rows over stride 1, grid 3.
	_, _, ths2, _, err := TileSplit(6, 6, Partition{Gy: 3, Gx: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ths2[0]+ths2[1]+ths2[2] != 6 {
		t.Fatalf("uneven split sums to %d", ths2[0]+ths2[1]+ths2[2])
	}
	// Impossible split errors.
	if _, _, _, _, err := TileSplit(2, 2, Partition{Gy: 4, Gx: 1}, 1); err == nil {
		t.Fatal("oversubscribed grid accepted")
	}
	if _, _, _, _, err := TileSplit(7, 7, Partition{Gy: 1, Gx: 1}, 2); err == nil {
		t.Fatal("stride-indivisible input accepted")
	}
}
