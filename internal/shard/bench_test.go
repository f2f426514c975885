package shard

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/pgdb"
)

// benchShardRows is the fact-table size of the scatter-gather benchmark.
const benchShardRows = 100_000

// memberRowCost is the modeled per-row latency of a member: each backend's
// per-statement Delay is its local fact-table rows times this, standing in
// for a remote MPP member's scan and result shipping — the part of an MPP
// system that runs in parallel across members, and the only part that can
// overlap on a single-core host (the embedded engines' own CPU work
// serializes there).
const memberRowCost = 4 * time.Microsecond

// benchShardLoad generates the DDL and 500-row INSERTs that build the
// benchmark tables as replayable SQL, so the single backend and every
// cluster load identical data from a fixed LCG: a bench_trades fact table
// of n rows and a bench_syms dimension.
func benchShardLoad(n int) []string {
	syms := []string{"GOOG", "IBM", "MSFT", "AAPL", "ORCL", "SAP", "TDC", "HPQ"}
	stmts := []string{
		"CREATE TABLE bench_trades (sym varchar, price double precision, size bigint, venue bigint)",
		"CREATE TABLE bench_syms (sym varchar, sector varchar, lot bigint)",
	}
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 17
	}
	var sb strings.Builder
	const chunk = 500
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		sb.Reset()
		sb.WriteString("INSERT INTO bench_trades VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			sym := syms[next()%uint64(len(syms))]
			price := 50.0 + float64(next()%100000)/100.0
			size := int64(next()%1000) + 1
			venue := int64(next() % 16)
			if next()%97 == 0 {
				fmt.Fprintf(&sb, "('%s', NULL, %d, %d)", sym, size, venue)
			} else {
				fmt.Fprintf(&sb, "('%s', %g, %d, %d)", sym, price, size, venue)
			}
		}
		stmts = append(stmts, sb.String())
	}
	sectors := []string{"tech", "finance", "industrial"}
	sb.Reset()
	sb.WriteString("INSERT INTO bench_syms VALUES ")
	for i, sym := range syms {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "('%s', '%s', %d)", sym, sectors[i%len(sectors)], 100*(i+1))
	}
	return append(stmts, sb.String())
}

// execAll runs stmts through be.
func execAll(b *testing.B, be core.Backend, stmts []string) {
	b.Helper()
	for _, stmt := range stmts {
		if _, err := be.Exec(bg, stmt); err != nil {
			b.Fatalf("load: %v", err)
		}
	}
}

// newBenchCluster builds a width-shard embedded cluster, loads stmts
// through the routing backend (bench_trades hashed on sym, bench_syms
// replicated), then sets every member's Delay in proportion to the
// bench_trades rows it holds.
func newBenchCluster(b *testing.B, width int, stmts []string) *Backend {
	b.Helper()
	members := make([]*core.DirectBackend, width)
	factories := make([]func() (core.Backend, error), width)
	for i := range factories {
		members[i] = core.NewDirectBackend(pgdb.NewDB())
		factories[i] = func() (core.Backend, error) { return members[i], nil }
	}
	cl, err := New(NewCatalog(width, []TableSpec{
		{Name: "bench_trades", Kind: Hash, Column: "sym"},
		{Name: "bench_syms", Kind: Replicated},
	}), factories)
	if err != nil {
		b.Fatal(err)
	}
	sh, err := cl.NewBackend()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sh.Close() })
	execAll(b, sh, stmts)
	for _, m := range members {
		m.Delay = time.Duration(benchRowCount(b, m)) * memberRowCost
	}
	return sh
}

// benchRowCount counts one backend's local bench_trades rows.
func benchRowCount(b *testing.B, be core.Backend) int64 {
	b.Helper()
	res, err := be.Exec(bg, "SELECT count(*) AS n FROM bench_trades")
	if err != nil {
		b.Fatalf("row count: %v", err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		b.Fatal("row count: unexpected result shape")
	}
	var n int64
	if _, err := fmt.Sscanf(res.Rows[0][0].Text, "%d", &n); err != nil {
		b.Fatalf("row count: %v", err)
	}
	return n
}

// BenchmarkShardScatterGather runs the same queries over 100k rows against
// a single embedded backend (single) and against 1/2/4/8-shard clusters
// (N-shard), every backend delayed per statement by its modeled member
// cost. The coordinator's real costs — routing, fan-out, aggregate
// decomposition, the probe, the ordered merge — are measured live.
//
//	scan       scatter-gather with streaming merge (~99% of rows survive
//	           the filter): wall time tracks the largest shard
//	aggregate  distributed aggregate decomposition (grouped count/sum/min/
//	           max over integers): per-shard partials, coordinator
//	           re-aggregation
//	pruned     partition-key equality: the planner routes to the single
//	           owning shard, so only 1/N of the modeled work is paid
func BenchmarkShardScatterGather(b *testing.B) {
	stmts := benchShardLoad(benchShardRows)
	type target struct {
		name  string
		build func(b *testing.B) core.Backend
	}
	targets := []target{{"single", func(b *testing.B) core.Backend {
		single := core.NewDirectBackend(pgdb.NewDB())
		b.Cleanup(func() { single.Close() })
		execAll(b, single, stmts)
		single.Delay = time.Duration(benchShardRows) * memberRowCost
		return single
	}}}
	for _, width := range []int{1, 2, 4, 8} {
		targets = append(targets, target{fmt.Sprintf("%d-shard", width), func(b *testing.B) core.Backend {
			return newBenchCluster(b, width, stmts)
		}})
	}
	for _, t := range targets {
		b.Run(t.name, func(b *testing.B) {
			be := t.build(b)
			for _, c := range []struct{ name, sql string }{
				{"scan", "SELECT sym, price, size FROM bench_trades WHERE size > 10"},
				{"aggregate", "SELECT sym, count(*) AS n, sum(size) AS sz, min(size) AS lo, max(size) AS hi FROM bench_trades GROUP BY sym"},
				{"pruned", "SELECT sym, price, size FROM bench_trades WHERE sym = 'GOOG'"},
			} {
				b.Run(c.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := be.Exec(bg, c.sql); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}
