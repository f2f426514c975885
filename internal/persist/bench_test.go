package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hyperq/internal/pgdb"
)

// The durable-storage benchmarks: a date-partitioned fact table is
// checkpointed to splayed column files, and the cases measure the costs the
// persistence layer adds or removes.
//
//	BenchmarkPersistWALAppend      journaled 500-row INSERTs under each sync mode
//	BenchmarkPersistPartitioned    catalog open, and a single-date (pruned) and
//	                               all-dates (full) aggregate resident, cold
//	                               and under eviction, over 1M rows
//	BenchmarkPersistColProjection  a 2-of-10-column cold aggregate across column
//	                               file format and read path, against the
//	                               10-column contrast

// benchStoreRows is the fact-table size of the checkpointed benchmarks.
const benchStoreRows = 1_000_000

var benchDates = []string{
	"2024-07-01", "2024-07-02", "2024-07-03", "2024-07-04",
	"2024-07-05", "2024-07-06", "2024-07-07", "2024-07-08",
}

var benchSyms = []string{"GOOG", "IBM", "MSFT", "AAPL", "ORCL", "SAP", "TDC", "HPQ"}

const (
	benchPrunedSQL = "SELECT count(*), sum(size), min(price), max(price) FROM bench_pt WHERE d = '2024-07-03'"
	benchFullSQL   = "SELECT count(*), sum(size), min(price), max(price) FROM bench_pt"
)

// benchInserts generates INSERT statements of 500 rows each into table,
// rendering row i of n with row.
func benchInserts(table string, n int, row func(sb *strings.Builder, i int)) []string {
	var stmts []string
	var sb strings.Builder
	const chunk = 500
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		sb.Reset()
		sb.WriteString("INSERT INTO " + table + " VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			row(&sb, i)
		}
		stmts = append(stmts, sb.String())
	}
	return stmts
}

// lcg returns a fixed-seed generator, so every run loads identical data.
func lcg(seed uint64) func() uint64 {
	return func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 17
	}
}

// benchPartitionedLoad builds the date-partitioned fact table: n rows over
// the 8-day window, dates non-decreasing so the checkpoint splits the table
// into one directory per day.
func benchPartitionedLoad(n int) []string {
	next := lcg(0x9e3779b97f4a7c15)
	return append([]string{
		"CREATE TABLE bench_pt (d date, sym varchar, price double precision, size bigint)",
	}, benchInserts("bench_pt", n, func(sb *strings.Builder, i int) {
		d := benchDates[i*len(benchDates)/n]
		sym := benchSyms[next()%uint64(len(benchSyms))]
		price := 50.0 + float64(next()%100000)/100.0
		size := int64(next()%1000) + 1
		fmt.Fprintf(sb, "('%s', '%s', %g, %d)", d, sym, price, size)
	})...)
}

// benchWideLoad builds the 10-column fact table. Column value shapes span
// the codec's encodings: sym is low-cardinality (dict), c2 is sorted
// (delta), c3/c5/c7 are narrow-range (frame-of-reference), c1/c4/c6/c8 are
// wide-range randoms (bitpacked near raw width or left raw).
func benchWideLoad(n int) []string {
	next := lcg(0x2545f4914f6cdd1d)
	return append([]string{
		"CREATE TABLE bench_wide (d date, sym varchar, c1 bigint, c2 bigint, c3 bigint, c4 bigint, c5 bigint, c6 bigint, c7 bigint, c8 bigint)",
	}, benchInserts("bench_wide", n, func(sb *strings.Builder, i int) {
		d := benchDates[i*len(benchDates)/n]
		sym := benchSyms[next()%uint64(len(benchSyms))]
		fmt.Fprintf(sb, "('%s', '%s', %d, %d, %d, %d, %d, %d, %d, %d)",
			d, sym,
			next()%1000000, // c1: predicate column, ~half the rows pass
			i,              // c2: sorted
			next()%100,     // c3: narrow
			next(),         // c4: wide
			next()%50,      // c5: narrow
			next()%1000000, // c6: aggregate input
			next()%128,     // c7: narrow
			next())         // c8: wide
	})...)
}

// benchCheckpointDir runs stmts through a journaled database and
// checkpoints it, returning a data directory ready for cold opens.
func benchCheckpointDir(b *testing.B, stmts []string, compress bool) string {
	b.Helper()
	dir := b.TempDir()
	db := pgdb.NewDB()
	db.SetExecMode(pgdb.ExecVectorized)
	st, err := Open(db, Options{Dir: dir, Sync: SyncNone, Compress: compress})
	if err != nil {
		b.Fatal(err)
	}
	s := db.NewSession()
	for _, stmt := range stmts {
		if _, err := s.Exec(stmt); err != nil {
			b.Fatalf("load: %v", err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		b.Fatalf("checkpoint: %v", err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// benchOpen opens a fresh vectorized database on dir. Parallelism is on for
// every case — in-memory scans and fault-in reloads both use the engine's
// segment-granular workers, so the comparison is fair.
func benchOpen(b *testing.B, dir string, opts Options) (*pgdb.DB, *Store) {
	b.Helper()
	db := pgdb.NewDB()
	db.SetExecMode(pgdb.ExecVectorized)
	db.SetParallelism(runtime.NumCPU())
	opts.Dir = dir
	st, err := Open(db, opts)
	if err != nil {
		b.Fatalf("open: %v", err)
	}
	return db, st
}

// benchAggregate runs sql and checks it returns the aggregate's one row.
func benchAggregate(b *testing.B, s *pgdb.Session, sql string) {
	b.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Rows) != 1 {
		b.Fatalf("unexpected shape: %d rows", len(res.Rows))
	}
}

// BenchmarkPersistWALAppend measures journaled 500-row INSERT statements
// under each sync mode: the WAL's write amplification and group-commit
// behavior.
func BenchmarkPersistWALAppend(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("INSERT INTO bench_wal VALUES ")
	for i := 0; i < 500; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %g, 'v%d')", i, float64(i)*1.5, i%7)
	}
	stmt := sb.String()
	for _, m := range []struct {
		name string
		mode SyncMode
	}{{"none", SyncNone}, {"batch", SyncBatch}, {"always", SyncAlways}} {
		b.Run(m.name, func(b *testing.B) {
			db := pgdb.NewDB()
			st, err := Open(db, Options{Dir: b.TempDir(), Sync: m.mode})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			s := db.NewSession()
			if _, err := s.Exec("CREATE TABLE bench_wal (a bigint, b double precision, c varchar)"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPersistPartitioned measures the checkpointed 1M-row, 8-partition
// table:
//
//	catalog_open             Open on the checkpoint: manifest decode and stub
//	                         installation only, no column data
//	pruned_scan/memory       the single-date aggregate, fully resident (the
//	                         baseline)
//	pruned_scan/cold_open    the first query after a restart: zone maps from
//	                         the manifest prune to one partition, whose
//	                         segments fault in from disk
//	pruned_scan/evict_reload a 1-byte memory budget evicts every checkpointed
//	                         segment after each statement, so every iteration
//	                         re-reads the partition
//	full_scan/cold_open      the aggregate without the date filter after a
//	                         cold open: it faults all partitions, not one
func BenchmarkPersistPartitioned(b *testing.B) {
	dir := benchCheckpointDir(b, benchPartitionedLoad(benchStoreRows), false)
	b.Run("catalog_open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, st := benchOpen(b, dir, Options{})
			b.StopTimer()
			st.Close()
			b.StartTimer()
		}
	})
	b.Run("pruned_scan/memory", func(b *testing.B) {
		db, st := benchOpen(b, dir, Options{})
		defer st.Close()
		s := db.NewSession()
		benchAggregate(b, s, benchFullSQL) // fault every partition in
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchAggregate(b, s, benchPrunedSQL)
		}
	})
	for _, c := range []struct{ name, sql string }{
		{"pruned_scan/cold_open", benchPrunedSQL},
		{"full_scan/cold_open", benchFullSQL},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, st := benchOpen(b, dir, Options{})
				s := db.NewSession()
				b.StartTimer()
				benchAggregate(b, s, c.sql)
				b.StopTimer()
				st.Close()
				b.StartTimer()
			}
		})
	}
	b.Run("pruned_scan/evict_reload", func(b *testing.B) {
		db, st := benchOpen(b, dir, Options{MemBudget: 1})
		defer st.Close()
		s := db.NewSession()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchAggregate(b, s, benchPrunedSQL)
		}
	})
}

// colFileBytes sums the on-disk size of every column file under dir.
func colFileBytes(b *testing.B, dir string) int64 {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".col") {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			total += fi.Size()
		}
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	return total
}

// BenchmarkPersistColProjection runs a cold aggregate over the 1M-row,
// 10-column table that references 2 columns (cols2: predicate plus
// aggregate input), across the column file format (raw or compressed) and
// read path (pread or mmap), and the same predicate with a 10-column
// aggregate (cols10) on the raw files. io_bytes/op is the column bytes read
// by file I/O for the query (0 under mmap, whose chunks decode zero-copy);
// disk_bytes is the checkpoint's total column-file size.
func BenchmarkPersistColProjection(b *testing.B) {
	const (
		prunedSQL = "SELECT sum(c6) FROM bench_wide WHERE c1 > 500000"
		fullSQL   = "SELECT min(sym), max(d), min(c1), max(c2), sum(c3), sum(c4), min(c5), max(c6), sum(c7), sum(c8) FROM bench_wide WHERE c1 > 500000"
	)
	load := benchWideLoad(benchStoreRows)
	rawDir := benchCheckpointDir(b, load, false)
	compDir := benchCheckpointDir(b, load, true)
	for _, c := range []struct {
		name, dir, sql string
		mmap           bool
	}{
		{"cols2/raw+read", rawDir, prunedSQL, false},
		{"cols2/raw+mmap", rawDir, prunedSQL, true},
		{"cols2/compressed+read", compDir, prunedSQL, false},
		{"cols2/compressed+mmap", compDir, prunedSQL, true},
		{"cols10/raw+read", rawDir, fullSQL, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			var ioBytes int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, st := benchOpen(b, c.dir, Options{MMap: c.mmap})
				s := db.NewSession()
				b.StartTimer()
				benchAggregate(b, s, c.sql)
				b.StopTimer()
				ioBytes += st.Stats().Snapshot().BytesRead
				st.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(ioBytes)/float64(b.N), "io_bytes/op")
			b.ReportMetric(float64(colFileBytes(b, c.dir)), "disk_bytes")
		})
	}
}
