package tensor

import "fmt"

// MatMul computes C = A·B for A (m×k) and B (k×n), returning a new m×n
// tensor. Rows of the output are computed in parallel.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 operands")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", k, k2))
	}
	c := New(m, n)
	ad, bd, cd := a.Data, b.Data, c.Data
	parallelFor(m, func(rs, re int) {
		for i := rs; i < re; i++ {
			ci := cd[i*n : (i+1)*n]
			ai := ad[i*k : (i+1)*k]
			// Loop order i-k-j streams B rows and keeps the inner loop
			// vectorizable.
			for p := 0; p < k; p++ {
				av := ai[p]
				if av == 0 {
					continue
				}
				bp := bd[p*n : (p+1)*n]
				for j := range bp {
					ci[j] += av * bp[j]
				}
			}
		}
	})
	return c
}

// MatMulTransB computes C = A·Bᵀ for A (m×k) and B (n×k), returning m×n.
// This layout is the natural one for linear-layer weight matrices stored as
// (out, in).
func MatMulTransB(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransB requires rank-2 operands")
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dims %d != %d", k, k2))
	}
	c := New(m, n)
	ad, bd, cd := a.Data, b.Data, c.Data
	parallelFor(m, func(rs, re int) {
		for i := rs; i < re; i++ {
			ai := ad[i*k : (i+1)*k]
			ci := cd[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bj := bd[j*k : (j+1)*k]
				var s float32
				for p := range ai {
					s += ai[p] * bj[p]
				}
				ci[j] = s
			}
		}
	})
	return c
}

// MatMulTransA computes C = Aᵀ·B for A (k×m) and B (k×n), returning m×n.
// Used for weight gradients (xᵀ · dy).
func MatMulTransA(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransA requires rank-2 operands")
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dims %d != %d", k, k2))
	}
	c := New(m, n)
	ad, bd, cd := a.Data, b.Data, c.Data
	parallelFor(m, func(rs, re int) {
		for i := rs; i < re; i++ {
			ci := cd[i*n : (i+1)*n]
			for p := 0; p < k; p++ {
				av := ad[p*m+i]
				if av == 0 {
					continue
				}
				bp := bd[p*n : (p+1)*n]
				for j := range bp {
					ci[j] += av * bp[j]
				}
			}
		}
	})
	return c
}

// MatVec computes y = A·x for A (m×n) and x (n), returning m.
func MatVec(a, x *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	if x.Len() != n {
		panic(fmt.Sprintf("tensor: MatVec dims %d != %d", n, x.Len()))
	}
	y := New(m)
	ad, xd, yd := a.Data, x.Data, y.Data
	parallelFor(m, func(rs, re int) {
		for i := rs; i < re; i++ {
			ai := ad[i*n : (i+1)*n]
			var s float32
			for j := range ai {
				s += ai[j] * xd[j]
			}
			yd[i] = s
		}
	})
	return y
}
