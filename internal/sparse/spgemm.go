package sparse

import (
	"fmt"
	"runtime"
	"sync"
)

// SpGEMM computes C = A * B for sparse A and B using Gustavson's
// row-wise algorithm, parallelized over row blocks of A. The returned
// flop count is the modeled Gustavson multiply-add count — one per
// (A nonzero, B row nonzero) pair, SpGEMMFlops(a, b) — which the
// cluster cost model charges as simulated device time. It is not the
// host's work: rows of A with a single nonzero are copied from B
// without an accumulator, and that shortcut leaves the count unchanged.
func SpGEMM(a, b *CSR) (c *CSR, flops int64) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("sparse: SpGEMM dimension mismatch %dx%d * %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols))
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > a.Rows {
		workers = a.Rows
	}
	if workers < 1 {
		workers = 1
	}
	// Every worker writes its rows straight into one shared output,
	// sized by the flop bound (collisions only shrink a row): worker w
	// owns the capped region [start, start+bound) and fills a prefix
	// of it.
	type segment struct {
		lo, hi       int // A rows
		start, bound int // output region
		n            int // entries written
	}
	chunk := (a.Rows + workers - 1) / workers
	segs := make([]segment, 0, workers)
	total := 0
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		if lo >= hi {
			break
		}
		bound := int(rowsFlops(a, b, lo, hi))
		segs = append(segs, segment{lo: lo, hi: hi, start: total, bound: bound})
		total += bound
	}
	out := &CSR{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int, a.Rows+1),
		ColIdx: make([]int, total), Val: make([]float64, total)}
	var wg sync.WaitGroup
	for w := range segs {
		wg.Add(1)
		go func(sg *segment) {
			defer wg.Done()
			k := gustavson{b: b}
			end := sg.start + sg.bound
			cols := out.ColIdx[sg.start:sg.start:end]
			vals := out.Val[sg.start:sg.start:end]
			for i := sg.lo; i < sg.hi; i++ {
				acols, avals := a.Row(i)
				cols, vals = k.appendRow(cols, vals, acols, avals)
				out.RowPtr[i+1] = sg.start + len(cols)
			}
			sg.n = len(cols)
		}(&segs[w])
	}
	wg.Wait()

	// Close the gaps collisions left between segments. A product whose
	// rows never collide (every one-hot sampler row) fills each region
	// exactly, and nothing moves.
	n := 0
	for w := range segs {
		sg := &segs[w]
		if shift := sg.start - n; shift > 0 {
			copy(out.ColIdx[n:], out.ColIdx[sg.start:sg.start+sg.n])
			copy(out.Val[n:], out.Val[sg.start:sg.start+sg.n])
			for i := sg.lo; i < sg.hi; i++ {
				out.RowPtr[i+1] -= shift
			}
		}
		n += sg.n
	}
	out.ColIdx, out.Val = out.ColIdx[:n], out.Val[:n]
	return out, int64(total)
}

// gustavson is the row kernel shared by SpGEMM and Scratch.SpGEMM: it
// computes one row of A*B for a fixed right operand b, holding a
// sparse accumulator that is allocated on the first row needing one.
type gustavson struct {
	b   *CSR
	acc *spa
}

// appendRow appends the product of the A row (acols, avals) with b to
// cols/vals. A row with a single nonzero av at column k emits b's row
// k as 0 + av*b[k,j]: exactly what the accumulator produces, since
// every slot starts at +0 (so −0 becomes +0 and explicit zeros stay)
// and b's strictly increasing columns are the sorted drain. Rows with
// more nonzeros scatter through the accumulator.
func (g *gustavson) appendRow(cols []int, vals []float64, acols []int, avals []float64) ([]int, []float64) {
	switch len(acols) {
	case 0:
		return cols, vals
	case 1:
		av := avals[0]
		bcols, bvals := g.b.Row(acols[0])
		cols = append(cols, bcols...)
		for _, bv := range bvals {
			vals = append(vals, 0+av*bv)
		}
		return cols, vals
	}
	g.acc = ensureSPA(g.acc, g.b.Cols)
	for k := range acols {
		av := avals[k]
		bcols, bvals := g.b.Row(acols[k])
		for t := range bcols {
			g.acc.add(bcols[t], av*bvals[t])
		}
	}
	return g.acc.drainInto(cols, vals)
}

// SpGEMMFlops returns the flop count of A*B without forming the
// product. Used for symbolic cost estimation.
func SpGEMMFlops(a, b *CSR) int64 { return rowsFlops(a, b, 0, a.Rows) }

// rowsFlops is the flop count of rows [lo, hi) of A*B — also the bound
// on those rows' output entries, since collisions only merge entries.
func rowsFlops(a, b *CSR, lo, hi int) int64 {
	var flops int64
	for i := lo; i < hi; i++ {
		cols, _ := a.Row(i)
		for _, c := range cols {
			flops += int64(b.RowNNZ(c))
		}
	}
	return flops
}

// spa is a sparse accumulator: a dense value array plus an occupancy
// list, reused across rows to avoid reallocation.
type spa struct {
	val     []float64
	present []bool
	idx     []int
}

func newSPA(n int) *spa {
	return &spa{val: make([]float64, n), present: make([]bool, n)}
}

// ensureSPA returns s if it covers n columns, else a fresh accumulator.
func ensureSPA(s *spa, n int) *spa {
	if s == nil || len(s.val) < n {
		return newSPA(n)
	}
	return s
}

func (s *spa) add(j int, v float64) {
	if !s.present[j] {
		s.present[j] = true
		s.idx = append(s.idx, j)
	}
	s.val[j] += v
}

// drainInto appends the accumulated (sorted) columns and values to the
// given buffers and resets the accumulator, so callers can write rows
// straight into preallocated output.
func (s *spa) drainInto(cols []int, vals []float64) ([]int, []float64) {
	base := len(cols)
	cols = append(cols, s.idx...)
	insertionSort(cols[base:])
	for _, j := range cols[base:] {
		vals = append(vals, s.val[j])
		s.val[j] = 0
		s.present[j] = false
	}
	s.idx = s.idx[:0]
	return cols, vals
}

// insertionSort sorts small integer slices in place; output rows of
// SpGEMM are typically short, where insertion sort beats sort.Ints.
func insertionSort(a []int) {
	if len(a) > 64 {
		quickSortInts(a)
		return
	}
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

func quickSortInts(a []int) {
	for len(a) > 64 {
		p := partition(a)
		if p < len(a)-p {
			quickSortInts(a[:p])
			a = a[p+1:]
		} else {
			quickSortInts(a[p+1:])
			a = a[:p]
		}
	}
	insertionSort(a)
}

func partition(a []int) int {
	mid := len(a) / 2
	if a[0] > a[mid] {
		a[0], a[mid] = a[mid], a[0]
	}
	if a[0] > a[len(a)-1] {
		a[0], a[len(a)-1] = a[len(a)-1], a[0]
	}
	if a[mid] > a[len(a)-1] {
		a[mid], a[len(a)-1] = a[len(a)-1], a[mid]
	}
	pivot := a[mid]
	a[mid], a[len(a)-1] = a[len(a)-1], a[mid]
	i := 0
	for j := 0; j < len(a)-1; j++ {
		if a[j] < pivot {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[len(a)-1] = a[len(a)-1], a[i]
	return i
}

// AddCSR returns A + B for same-shaped sparse matrices, merging rows.
func AddCSR(a, b *CSR) *CSR {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("sparse: AddCSR shape mismatch %v vs %v", a, b))
	}
	out := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int, a.Rows+1)}
	out.ColIdx = make([]int, 0, a.NNZ()+b.NNZ())
	out.Val = make([]float64, 0, a.NNZ()+b.NNZ())
	for i := 0; i < a.Rows; i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		x, y := 0, 0
		for x < len(ac) && y < len(bc) {
			switch {
			case ac[x] < bc[y]:
				out.ColIdx = append(out.ColIdx, ac[x])
				out.Val = append(out.Val, av[x])
				x++
			case ac[x] > bc[y]:
				out.ColIdx = append(out.ColIdx, bc[y])
				out.Val = append(out.Val, bv[y])
				y++
			default:
				out.ColIdx = append(out.ColIdx, ac[x])
				out.Val = append(out.Val, av[x]+bv[y])
				x++
				y++
			}
		}
		for ; x < len(ac); x++ {
			out.ColIdx = append(out.ColIdx, ac[x])
			out.Val = append(out.Val, av[x])
		}
		for ; y < len(bc); y++ {
			out.ColIdx = append(out.ColIdx, bc[y])
			out.Val = append(out.Val, bv[y])
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}
