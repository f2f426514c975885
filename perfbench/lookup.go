package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/sidebyside"
	"hyperq/internal/taq"
)

// The lookup workload is many tiny requests from one closed-loop client:
// seeded Zipf draws over a universe of distinct query texts several times
// larger than the translation cache. Each answer is 1 to a few dozen rows,
// so the per-request path does most of the work: QIPC framing, xc, the
// translation stages on cache misses, qcache, mdi, pool checkout, the PG v3
// round trip and pgdb's SQL parse. trades lookups scan far more than the
// others and are kept rare so pgdb's share stays under half of the round
// trip. The translation-cache hit ratio follows from the draws; it is
// measured, not set.
//
// BENCHMARK.json leaves this workload out. Its round trip is a quarter of a
// millisecond, so on a shared VM the time the host takes to wake an idle
// CPU sets its figures: runs of the same code spread far past the bounds.
// Run it by name to study the per-request path.
type lookup struct{}

const (
	lookupClients = 1
	lookupSymbols = 200
	lookupTrades  = 20_000
	// lookupUniverse is the number of distinct query texts: 8x the default
	// translation cache.
	lookupUniverse = 8192
	lookupZipfS    = 1.1
	lookupWarmup   = 3000 // requests per client before the window
)

// lookupShares are the templates' shares of the universe and of the
// requests. Each request first draws its template by share, then a text of
// that template by Zipf rank, so the mix of cheap and costly templates does
// not depend on which texts the seed makes popular.
var lookupShares = []float64{0.57, 0.40, 0.03}

// lookupQuery is one text of the universe with what it selects.
type lookupQuery struct {
	text  string
	table string
	sym   string
	cols  []string
	t0    int64 // trades: Time within t0 t1 (ms since midnight)
	t1    int64
	want  *qval.Table // the answer, computed from the generated tables
}

type lookupInst struct {
	*deployment
	data     *taq.Data
	universe [][]lookupQuery // per template
	clients  []*qclient
	rngs     []*rand.Rand
	zipfs    [][]*rand.Zipf // per client, per template
	// index of the generated tables, for expected answers
	dailyRow map[string]int
	tradeRow map[string][]int
}

func (lookup) setup(rc *runConfig, tr *tracer) (instance, error) {
	ctx := context.Background()
	cfg := taq.Config{Seed: rc.seed, NumSymbols: lookupSymbols, Trades: lookupTrades, Quotes: 1}
	universe := lookupUniverse
	if rc.tiny {
		cfg.NumSymbols, cfg.Trades, cfg.WideCols, universe = 40, 2000, 20, 300
	}
	db, _, err := newDB(rc.def, "", 0)
	if err != nil {
		return nil, err
	}
	data := taq.Generate(cfg)
	b := core.NewDirectBackend(db)
	for _, t := range []struct {
		name string
		tbl  *qval.Table
	}{{"trades", data.Trades}, {"refdata", data.RefData}, {"daily", data.Daily}} {
		if err := core.LoadQTable(ctx, b, t.name, t.tbl); err != nil {
			return nil, fmt.Errorf("loading %s: %w", t.name, err)
		}
	}
	b.Close()
	st, err := startStack(db, rc.def, tr)
	if err != nil {
		return nil, err
	}
	in := &lookupInst{deployment: &deployment{st: st}, data: data}
	in.index()
	// every text's answer is computed before the window, so checking costs
	// the same per request however many texts the run has already seen
	in.universe = makeUniverse(rand.New(rand.NewSource(rc.seed)), data, universe)
	for _, texts := range in.universe {
		for i := range texts {
			texts[i].want = in.expected(&texts[i])
		}
	}
	for i := 0; i < lookupClients; i++ {
		c, err := dialQ(st.qAddr, i, tr)
		if err != nil {
			in.close()
			return nil, err
		}
		in.clients = append(in.clients, c)
		r := rand.New(rand.NewSource(rc.seed*1000 + 100 + int64(i)))
		var zs []*rand.Zipf
		for _, texts := range in.universe {
			zs = append(zs, rand.NewZipf(r, lookupZipfS, 1, uint64(len(texts)-1)))
		}
		in.rngs = append(in.rngs, r)
		in.zipfs = append(in.zipfs, zs)
	}
	// warm-up: the caches fill from the same distribution the window draws
	warm := lookupWarmup
	if rc.tiny {
		warm = 100
	}
	for i, c := range in.clients {
		for k := 0; k < warm; k++ {
			q := in.draw(i)
			v, raw, _, err := c.query(q.text)
			if err == nil {
				err = in.check(q, v, raw)
			}
			if err != nil {
				in.close()
				return nil, fmt.Errorf("warm-up %q: %w", q.text, err)
			}
		}
	}
	return in, nil
}

// lookupTemplates are the query templates, in the order of
// lookupShares.
var lookupTemplates = []string{"daily", "refdata", "trades"}

// makeUniverse draws distinct query texts, n in all, split across the
// templates by lookupShares.
func makeUniverse(r *rand.Rand, data *taq.Data, n int) [][]lookupQuery {
	syms := data.Daily.Data[0].(qval.SymbolVec) // symbols that traded
	var dailyCols = []string{"Open", "High", "Low", "Close", "Volume"}
	attrs := data.RefData.Cols[2:]
	seen := map[string]bool{}
	out := make([][]lookupQuery, len(lookupTemplates))
	for t, table := range lookupTemplates {
		for want := int(float64(n)*lookupShares[t] + 0.5); len(out[t]) < want; {
			q := lookupQuery{table: table, sym: string(syms[r.Intn(len(syms))])}
			switch table {
			case "daily":
				for _, c := range dailyCols {
					if r.Intn(2) == 0 {
						q.cols = append(q.cols, c)
					}
				}
				if len(q.cols) == 0 {
					q.cols = []string{dailyCols[r.Intn(len(dailyCols))]}
				}
				q.text = fmt.Sprintf("select %s from daily where Symbol=`%s", strings.Join(q.cols, ", "), q.sym)
			case "refdata":
				q.cols = []string{"Symbol"}
				for _, k := range r.Perm(len(attrs))[:2+r.Intn(3)] {
					q.cols = append(q.cols, attrs[k])
				}
				q.text = fmt.Sprintf("select %s from refdata where Symbol=`%s", strings.Join(q.cols, ", "), q.sym)
			case "trades":
				q.cols = []string{"Time", "Price", "Size"}
				open := int64(9*3600_000 + 30*60_000)
				q.t0 = open + r.Int63n(6*3600_000)
				q.t1 = q.t0 + (15+r.Int63n(46))*60_000
				q.text = fmt.Sprintf("select Time, Price, Size from trades where Symbol=`%s, Time within %s %s",
					q.sym, qTime(q.t0), qTime(q.t1))
			}
			if !seen[q.text] {
				seen[q.text] = true
				out[t] = append(out[t], q)
			}
		}
	}
	return out
}

// qTime spells milliseconds since midnight as a q time literal.
func qTime(ms int64) string {
	return fmt.Sprintf("%02d:%02d:%02d.%03d", ms/3600_000, ms/60_000%60, ms/1000%60, ms%1000)
}

func (in *lookupInst) index() {
	in.dailyRow = map[string]int{}
	for i, s := range in.data.Daily.Data[0].(qval.SymbolVec) {
		in.dailyRow[string(s)] = i
	}
	in.tradeRow = map[string][]int{}
	syms, _ := in.data.Trades.Column("Symbol")
	for i, s := range syms.(qval.SymbolVec) {
		in.tradeRow[string(s)] = append(in.tradeRow[string(s)], i)
	}
}

func (in *lookupInst) draw(client int) *lookupQuery {
	x, t := in.rngs[client].Float64(), 0
	for t < len(lookupShares)-1 && x >= lookupShares[t] {
		x -= lookupShares[t]
		t++
	}
	return &in.universe[t][in.zipfs[client][t].Uint64()]
}

// expected computes a text's answer from the generated tables.
func (in *lookupInst) expected(q *lookupQuery) *qval.Table {
	var src *qval.Table
	var rows []int
	switch q.table {
	case "daily":
		src, rows = in.data.Daily, []int{in.dailyRow[q.sym]}
	case "refdata":
		src = in.data.RefData
		syms := src.Data[0].(qval.SymbolVec)
		rows = []int{sort.Search(len(syms), func(i int) bool { return string(syms[i]) >= q.sym })}
	case "trades":
		src = in.data.Trades
		times, _ := src.Column("Time")
		tv := times.(qval.TemporalVec).V
		for _, r := range in.tradeRow[q.sym] {
			if tv[r] >= q.t0 && tv[r] <= q.t1 {
				rows = append(rows, r)
			}
		}
	}
	data := make([]qval.Value, len(q.cols))
	for j, c := range q.cols {
		col, _ := src.Column(c)
		data[j] = qval.TakeIndexes(col, rows)
	}
	return qval.NewTable(append([]string(nil), q.cols...), data)
}

// check verifies a response against the answer computed from the
// generated tables.
func (in *lookupInst) check(q *lookupQuery, v qval.Value, _ []byte) error {
	if diffs := sidebyside.Diff(q.want, v, floatTol); len(diffs) > 0 {
		return fmt.Errorf("answer differs from the generated data: %s", diffs[0])
	}
	return nil
}

func (in *lookupInst) verify() error { return nil }

func (in *lookupInst) run(deadline time.Time, w *window) {
	closedLoop(in.clients, deadline, w, func(i int) (string, checkFn) {
		q := in.draw(i)
		return q.text, func(v qval.Value, raw []byte) error { return in.check(q, v, raw) }
	})
}

func (in *lookupInst) finish(w *window) error { return in.close() }

func (in *lookupInst) close() error {
	for _, c := range in.clients {
		c.close()
	}
	return in.st.close()
}

func (in *lookupInst) sizes() map[string]int {
	return map[string]int{
		"trades": in.data.Trades.Len(), "symbols": in.data.Daily.Len(),
		"refdata_rows": in.data.RefData.Len(), "refdata_cols": in.data.RefData.NumCols(),
		"distinct_queries": len(in.universe[0]) + len(in.universe[1]) + len(in.universe[2]),
		"qcache_entries":   in.st.cacheCap,
	}
}
