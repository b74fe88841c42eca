package relax

import (
	"sync"

	"relaxedbvc/internal/metrics"
)

// Arena observability: gets-vs-news is the sync.Pool churn of the
// joint-LP row builders (steady state: news flat, gets climbing — the
// sweep inner loop builds its constraint rows without allocating).
var (
	rowArenaGets = metrics.DefaultCounter("relax_row_arena_gets_total")
	rowArenaNews = metrics.DefaultCounter("relax_row_arena_news_total")
)

// rowScratch is the reusable buffer set of one joint-LP build: sparse
// row indices/values, a second pair for derived bound rows and a dense
// objective row. Pooled so the steady-state Γ/Ψ sweep builds LPs with
// zero allocations (the lp.Problem side keeps its flat sparse row
// storage across Reset).
type rowScratch struct {
	idx []int
	val []float64
	ci  []int
	cv  []float64
	row []float64
}

var rowScratchPool = sync.Pool{New: func() any {
	rowArenaNews.Inc()
	return new(rowScratch)
}}

func getRowScratch() *rowScratch {
	rowArenaGets.Inc()
	return rowScratchPool.Get().(*rowScratch)
}

func (rs *rowScratch) release() { rowScratchPool.Put(rs) }

// zeroRow returns the reusable dense row resized to n and zeroed.
func (rs *rowScratch) zeroRow(n int) []float64 {
	if cap(rs.row) < n {
		rs.row = make([]float64, n)
	}
	rs.row = rs.row[:n]
	clear(rs.row)
	return rs.row
}
