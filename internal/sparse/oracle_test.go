package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The SpGEMM and merge kernels skip the sparse accumulator for rows
// with a single contributing source. The tests here pin that shortcut
// to the plain accumulator loop bit for bit, on operands holding −0,
// explicit zeros, subnormals and values whose products overflow.

// spaSpGEMM is the reference: every row of A*B scattered through one
// accumulator and drained sorted, serially.
func spaSpGEMM(a, b *CSR) *CSR {
	acc := newSPA(b.Cols)
	out := &CSR{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		acols, avals := a.Row(i)
		for k := range acols {
			av := avals[k]
			bcols, bvals := b.Row(acols[k])
			for t := range bcols {
				acc.add(bcols[t], av*bvals[t])
			}
		}
		out.ColIdx, out.Val = acc.drainInto(out.ColIdx, out.Val)
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

// spaMerge is the reference for MergeCSRInto: every row of every
// source scattered through one accumulator in source order.
func spaMerge(srcs []*CSR) *CSR {
	rows, cols := srcs[0].Rows, srcs[0].Cols
	acc := newSPA(cols)
	out := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < rows; i++ {
		for _, src := range srcs {
			cs, vs := src.Row(i)
			for k := range cs {
				acc.add(cs[k], vs[k])
			}
		}
		out.ColIdx, out.Val = acc.drainInto(out.ColIdx, out.Val)
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

// requireBitIdentical fails unless got and want have the same shape,
// pattern and value bits.
func requireBitIdentical(t *testing.T, what string, got, want *CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", what, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	if len(got.ColIdx) != len(want.ColIdx) || len(got.Val) != len(want.Val) {
		t.Fatalf("%s: %d/%d entries, want %d", what, len(got.ColIdx), len(got.Val), len(want.ColIdx))
	}
	for k := range want.ColIdx {
		if got.ColIdx[k] != want.ColIdx[k] {
			t.Fatalf("%s: ColIdx[%d] = %d, want %d", what, k, got.ColIdx[k], want.ColIdx[k])
		}
		if g, w := math.Float64bits(got.Val[k]), math.Float64bits(want.Val[k]); g != w {
			t.Fatalf("%s: Val[%d] bits %#x (%v), want %#x (%v)", what, k, g, got.Val[k], w, want.Val[k])
		}
	}
}

// chooser returns a choice in [0, n); the generators below draw every
// decision from one, so a fuzz input and a seeded RNG build operands
// the same way.
type chooser func(n int) int

func byteChooser(data []byte) chooser {
	return func(n int) int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v % n
	}
}

// oracleVals holds the values operands draw from: unit entries (twice,
// so one-hot rows are common), −0, explicit zeros, a subnormal whose
// products underflow to ±0, and a large value whose products overflow.
var oracleVals = []float64{1, 1, -1, 0, math.Copysign(0, -1), 0.5, -3, 1e300, 5e-324}

// appendMixedRow appends one row to m: empty, a single entry, or a
// random subset of the columns, each kind equally likely.
func appendMixedRow(m *CSR, pick chooser) {
	switch pick(3) {
	case 1:
		m.ColIdx = append(m.ColIdx, pick(m.Cols))
		m.Val = append(m.Val, oracleVals[pick(len(oracleVals))])
	case 2:
		for j := 0; j < m.Cols; j++ {
			if pick(2) == 1 {
				m.ColIdx = append(m.ColIdx, j)
				m.Val = append(m.Val, oracleVals[pick(len(oracleVals))])
			}
		}
	}
	m.RowPtr = append(m.RowPtr, len(m.ColIdx))
}

func mixedCSR(pick chooser, rows, cols int) *CSR {
	m := &CSR{Rows: rows, Cols: cols, RowPtr: []int{0}}
	for i := 0; i < rows; i++ {
		appendMixedRow(m, pick)
	}
	return m
}

// mixedSources draws k row-aligned sources in which each row is
// populated by no source, by exactly one, or by a random subset.
func mixedSources(pick chooser, k, rows, cols int) []*CSR {
	srcs := make([]*CSR, k)
	for s := range srcs {
		srcs[s] = &CSR{Rows: rows, Cols: cols, RowPtr: []int{0}}
	}
	for i := 0; i < rows; i++ {
		mode, only := pick(3), pick(k)
		for s, src := range srcs {
			if (mode == 1 && s == only) || (mode == 2 && pick(2) == 1) {
				appendMixedRow(src, pick)
			} else {
				src.RowPtr = append(src.RowPtr, len(src.ColIdx))
			}
		}
	}
	return srcs
}

// checkAgainstSPA runs SpGEMM, Scratch.SpGEMM (on a reused workspace)
// and MergeCSRInto against the references.
func checkAgainstSPA(t *testing.T, ws *Scratch, a, b *CSR, srcs []*CSR) {
	t.Helper()
	want := spaSpGEMM(a, b)
	c, flops := SpGEMM(a, b)
	requireBitIdentical(t, "SpGEMM", c, want)
	if fl := SpGEMMFlops(a, b); flops != fl {
		t.Fatalf("SpGEMM flops %d, want SpGEMMFlops %d", flops, fl)
	}
	var out CSR
	c, flops = ws.SpGEMM(&out, a, b)
	requireBitIdentical(t, "Scratch.SpGEMM", c, want)
	if fl := SpGEMMFlops(a, b); flops != fl {
		t.Fatalf("Scratch.SpGEMM flops %d, want SpGEMMFlops %d", flops, fl)
	}
	if len(srcs) > 0 {
		requireBitIdentical(t, "MergeCSRInto", ws.MergeCSRInto(&out, srcs), spaMerge(srcs))
	}
}

// withProcs runs f at each GOMAXPROCS setting and restores the old one.
func withProcs(procs []int, f func()) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		f()
	}
}

func TestSpGEMMMatchesSPA(t *testing.T) {
	withProcs([]int{1, 2, 5}, func() {
		rng := rand.New(rand.NewSource(23))
		var ws Scratch
		for trial := 0; trial < 200; trial++ {
			m, k, n := rng.Intn(20), 1+rng.Intn(12), 1+rng.Intn(12)
			a := mixedCSR(rng.Intn, m, k)
			b := mixedCSR(rng.Intn, k, n)
			srcs := mixedSources(rng.Intn, 1+rng.Intn(4), m, n)
			checkAgainstSPA(t, &ws, a, b, srcs)
		}
	})
}

// TestSpGEMMCompactsAfterCollisions makes the first worker's rows
// collide (two nonzeros over identical B rows), so its output region
// is left part-empty and the later workers' rows must move down.
func TestSpGEMMCompactsAfterCollisions(t *testing.T) {
	b := &CSR{Rows: 3, Cols: 4, RowPtr: []int{0, 3, 6, 7},
		ColIdx: []int{0, 2, 3, 0, 2, 3, 1},
		Val:    []float64{1, math.Copysign(0, -1), 2, 0.5, 0, -1, 3}}
	a := &CSR{Rows: 10, Cols: 3, RowPtr: []int{0}}
	for i := 0; i < a.Rows; i++ {
		if i < 5 {
			a.ColIdx = append(a.ColIdx, 0, 1)
			a.Val = append(a.Val, 1, -2)
		} else {
			a.ColIdx = append(a.ColIdx, i%3)
			a.Val = append(a.Val, float64(i))
		}
		a.RowPtr = append(a.RowPtr, len(a.ColIdx))
	}
	withProcs([]int{2, 5}, func() {
		c, flops := SpGEMM(a, b)
		if int64(c.NNZ()) >= flops {
			t.Fatalf("nnz %d not below flop bound %d: no collision to compact", c.NNZ(), flops)
		}
		requireBitIdentical(t, "SpGEMM", c, spaSpGEMM(a, b))
	})
}

// FuzzSpGEMMMatchesSPA decodes operands and merge sources from the
// input bytes (seed corpus in testdata/fuzz) and checks every kernel
// against the references.
func FuzzSpGEMMMatchesSPA(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pick := byteChooser(data)
		m, k, n := pick(16), 1+pick(12), 1+pick(12)
		a := mixedCSR(pick, m, k)
		b := mixedCSR(pick, k, n)
		srcs := mixedSources(pick, 1+pick(4), m, n)
		var ws Scratch
		checkAgainstSPA(t, &ws, a, b, srcs)
	})
}
