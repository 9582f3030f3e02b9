package sparse

import (
	"math/rand"
	"testing"
)

func benchGraph(b *testing.B, n int, deg float64) *CSR {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	coo := NewCOO(n, n, int(float64(n)*deg))
	for i := 0; i < int(float64(n)*deg); i++ {
		coo.Add(rng.Intn(n), rng.Intn(n), 1)
	}
	return coo.ToCSR()
}

func benchSelector(n, rows int) *CSR {
	coo := NewCOO(rows, n, rows)
	for i := 0; i < rows; i++ {
		coo.Add(i, (i*7919)%n, 1)
	}
	return coo.ToCSR()
}

// stageSelectors splits the one-hot selector q by column block into
// stages row-aligned parts, as the 1.5D stage loop does: each row's
// single entry lands in exactly one part.
func stageSelectors(q *CSR, stages int) []*CSR {
	width := (q.Cols + stages - 1) / stages
	parts := make([]*CSR, stages)
	for t := range parts {
		parts[t] = &CSR{Rows: q.Rows, Cols: q.Cols, RowPtr: make([]int, 1, q.Rows+1)}
	}
	for i := 0; i < q.Rows; i++ {
		cs, vs := q.Row(i)
		for k, c := range cs {
			p := parts[c/width]
			p.ColIdx = append(p.ColIdx, c)
			p.Val = append(p.Val, vs[k])
		}
		for _, p := range parts {
			p.RowPtr = append(p.RowPtr, len(p.ColIdx))
		}
	}
	return parts
}

func BenchmarkSpGEMMSelector(b *testing.B) {
	a := benchGraph(b, 10000, 16)
	q := benchSelector(10000, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SpGEMM(q, a)
	}
}

func BenchmarkScratchSpGEMMSelector(b *testing.B) {
	a := benchGraph(b, 10000, 16)
	q := benchSelector(10000, 2048)
	var ws Scratch
	var out CSR
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.SpGEMM(&out, q, a)
	}
}

func BenchmarkMergeCSRIntoSelector(b *testing.B) {
	a := benchGraph(b, 10000, 16)
	parts := stageSelectors(benchSelector(10000, 2048), 4)
	prods := make([]*CSR, len(parts))
	for t, qt := range parts {
		prods[t], _ = SpGEMM(qt, a)
	}
	var ws Scratch
	var out CSR
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.MergeCSRInto(&out, prods)
	}
}

func BenchmarkSpGEMMSquare(b *testing.B) {
	a := benchGraph(b, 2000, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SpGEMM(a, a)
	}
}

func BenchmarkSpMM(b *testing.B) {
	a := benchGraph(b, 5000, 16)
	feats := make([]float64, 5000*32)
	for i := range feats {
		feats[i] = float64(i % 13)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SpMM(a, feats, 32)
	}
}

func BenchmarkTranspose(b *testing.B) {
	a := benchGraph(b, 10000, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Transpose()
	}
}

func BenchmarkAddCSR(b *testing.B) {
	x := benchGraph(b, 5000, 8)
	y := benchGraph(b, 5000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddCSR(x, y)
	}
}

func BenchmarkExtractRows(b *testing.B) {
	a := benchGraph(b, 10000, 16)
	rows := make([]int, 2048)
	for i := range rows {
		rows[i] = (i * 4241) % 10000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractRows(a, rows)
	}
}

func BenchmarkVStack(b *testing.B) {
	parts := make([]*CSR, 16)
	for i := range parts {
		parts[i] = benchGraph(b, 500, 8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VStack(parts...)
	}
}
