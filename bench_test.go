// Package hyperq_test is the benchmark harness for the paper's evaluation
// (§6). One benchmark per figure plus the ablations DESIGN.md calls out:
//
//	BenchmarkFigure6_*      translation vs execution per workload query
//	BenchmarkFigure7_*      translation stage split
//	BenchmarkMetadataCache  MDI caching on/off (§3.2.3, §6)
//	BenchmarkMaterialization logical (view) vs physical (temp table) (§4.3)
//	BenchmarkResultPivot    row-stream -> column pivot (§4.2)
//	BenchmarkQIPC*          wire encode/decode and compression
//	BenchmarkAblation*      Xformer rules on/off (§3.3)
//
// Run: go test -bench=. -benchmem
package hyperq_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/endpoint"
	"hyperq/internal/gateway"
	"hyperq/internal/mdi"
	"hyperq/internal/pgdb"
	"hyperq/internal/pool"
	"hyperq/internal/qcache"
	"hyperq/internal/qlang/interp"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/taq"
	"hyperq/internal/wire/pgv3"
	"hyperq/internal/wire/qipc"
	"hyperq/internal/workload"
	"hyperq/internal/xc"
	"hyperq/internal/xformer"
)

// ctx for benchmark queries: benchmarks exercise the happy path, no deadline.
var ctx = context.Background()

// benchStack caches one loaded backend per data size across benchmarks.
var benchStacks = map[int]*pgdb.DB{}

func stackFor(b *testing.B, trades int) (*core.Session, core.Backend) {
	b.Helper()
	db, ok := benchStacks[trades]
	if !ok {
		db = pgdb.NewDB()
		loader := core.NewDirectBackend(db)
		if _, err := workload.Setup(context.Background(), loader, taq.Config{Seed: 1, Trades: trades, NumSymbols: 100}); err != nil {
			b.Fatal(err)
		}
		benchStacks[trades] = db
	}
	backend := core.NewDirectBackend(db)
	s := core.NewPlatform().NewSession(backend, core.Config{MDITTL: 5 * time.Minute})
	b.Cleanup(func() { s.Close() })
	return s, backend
}

// BenchmarkFigure6_Translation times pure query translation (the overhead
// Hyper-Q adds) for each workload query.
func BenchmarkFigure6_Translation(b *testing.B) {
	for _, q := range workload.Queries() {
		b.Run(fmt.Sprintf("q%02d", q.ID), func(b *testing.B) {
			s, _ := stackFor(b, 5000)
			if _, _, err := s.Run(ctx, "avgpx: 100.0"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Translate(ctx, q.Q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure6_EndToEnd times full translate+execute per query; with
// BenchmarkFigure6_Translation it yields the Figure 6 ratio.
func BenchmarkFigure6_EndToEnd(b *testing.B) {
	for _, q := range workload.Queries() {
		b.Run(fmt.Sprintf("q%02d", q.ID), func(b *testing.B) {
			s, _ := stackFor(b, 5000)
			if _, _, err := s.Run(ctx, "avgpx: 100.0"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Run(ctx, q.Q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure7_Stages reports the per-stage translation split over the
// whole workload as custom metrics (ns per stage per query).
func BenchmarkFigure7_Stages(b *testing.B) {
	s, _ := stackFor(b, 5000)
	if _, _, err := s.Run(ctx, "avgpx: 100.0"); err != nil {
		b.Fatal(err)
	}
	var agg core.StageTiming
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := workload.TranslateAll(ctx, s)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range ms {
			agg.Add(m.Translation)
		}
	}
	total := float64(agg.Translation())
	if total > 0 {
		b.ReportMetric(100*float64(agg.Parse)/total, "parse%")
		b.ReportMetric(100*float64(agg.Bind)/total, "bind%")
		b.ReportMetric(100*float64(agg.Xform)/total, "optimize%")
		b.ReportMetric(100*float64(agg.Serialize)/total, "serialize%")
	}
}

// BenchmarkMetadataCache compares binding with the metadata cache enabled
// (the paper's experimental setting) vs disabled (every lookup is a catalog
// round trip).
func BenchmarkMetadataCache(b *testing.B) {
	const q = "select Symbol, Price, Close, Sector from trades lj daily lj refdata where Size>2000"
	for _, mode := range []struct {
		name string
		ttl  time.Duration
	}{{"enabled", 5 * time.Minute}, {"disabled", -1}} {
		b.Run(mode.name, func(b *testing.B) {
			db, ok := benchStacks[5000]
			if !ok {
				stackFor(b, 5000)
				db = benchStacks[5000]
			}
			backend := core.NewDirectBackend(db)
			ttl := mode.ttl
			if ttl < 0 {
				ttl = time.Nanosecond // effectively disabled
			}
			s := core.NewPlatform().NewSession(backend, core.Config{MDITTL: ttl})
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Translate(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.MDI().Stats().CatalogRTs)/float64(b.N), "catalogRTs/op")
		})
	}
}

// BenchmarkMaterialization compares physical (temp table) and logical
// (view) materialization of variable assignments (§4.3).
func BenchmarkMaterialization(b *testing.B) {
	const q = "gg: select Price, Size from trades where Symbol=`SYM0001; select max Price from gg"
	for _, mode := range []struct {
		name string
		m    core.Materialization
	}{{"physical_temp_table", core.Physical}, {"logical_view", core.Logical}} {
		b.Run(mode.name, func(b *testing.B) {
			db, ok := benchStacks[5000]
			if !ok {
				stackFor(b, 5000)
				db = benchStacks[5000]
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				backend := core.NewDirectBackend(db)
				s := core.NewPlatform().NewSession(backend, core.Config{Materialization: mode.m})
				if _, _, err := s.Run(ctx, q); err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}

// BenchmarkResultPivot measures the row-oriented -> column-oriented result
// conversion the paper describes in §4.2 (Hyper-Q buffers the PG v3 rows and
// forms a single QIPC message).
func BenchmarkResultPivot(b *testing.B) {
	for _, rows := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			res := &core.BackendResult{
				Cols: []core.BackendCol{
					{Name: "Symbol", SQLType: "varchar"},
					{Name: "Price", SQLType: "double precision"},
					{Name: "Size", SQLType: "bigint"},
				},
			}
			for i := 0; i < rows; i++ {
				res.Rows = append(res.Rows, []core.Field{
					{Text: "GOOG"}, {Text: "101.25"}, {Text: "400"},
				})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.ResultToQ(res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQIPCEncodeTable measures serializing a result table into the
// QIPC object format.
func BenchmarkQIPCEncodeTable(b *testing.B) {
	tbl := benchTable(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qipc.EncodeValue(tbl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQIPCDecodeTable measures the reverse direction.
func BenchmarkQIPCDecodeTable(b *testing.B) {
	raw, err := qipc.EncodeValue(benchTable(10000))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := qipc.DecodeValue(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQIPCCompression measures the kx LZ compression on a framed
// message (§3.1: the QIPC protocol includes data compression).
func BenchmarkQIPCCompression(b *testing.B) {
	body, err := qipc.EncodeValue(benchTable(10000))
	if err != nil {
		b.Fatal(err)
	}
	raw := make([]byte, 8+len(body))
	raw[0] = 1
	raw[4] = byte(len(raw))
	raw[5] = byte(len(raw) >> 8)
	raw[6] = byte(len(raw) >> 16)
	copy(raw[8:], body)
	b.Run("compress", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if _, ok := qipc.Compress(raw); !ok {
				b.Fatal("should compress")
			}
		}
	})
	z, _ := qipc.Compress(raw)
	b.Run("decompress", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if _, err := qipc.Decompress(z); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ratio", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = z
		}
		b.ReportMetric(float64(len(raw))/float64(len(z)), "x")
	})
}

// BenchmarkAblationXformer measures translation with individual Xformer
// rules disabled — the design-choice ablations DESIGN.md calls out.
func BenchmarkAblationXformer(b *testing.B) {
	const q = "select Symbol, Price, Close, Sector from trades lj daily lj refdata where Symbol=`SYM0002"
	configs := []struct {
		name string
		cfg  xformer.Config
	}{
		{"all_rules", xformer.Config{}},
		{"no_null_semantics", xformer.Config{DisableNullSemantics: true}},
		{"no_column_pruning", xformer.Config{DisableColumnPruning: true}},
		{"no_ordering", xformer.Config{DisableOrdering: true}},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			db, ok := benchStacks[5000]
			if !ok {
				stackFor(b, 5000)
				db = benchStacks[5000]
			}
			backend := core.NewDirectBackend(db)
			s := core.NewPlatform().NewSession(backend, core.Config{Xformer: c.cfg, MDITTL: 5 * time.Minute})
			defer s.Close()
			var sqlLen int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sql, _, err := s.Translate(ctx, q)
				if err != nil {
					b.Fatal(err)
				}
				sqlLen = len(sql)
			}
			b.ReportMetric(float64(sqlLen), "sql_bytes")
		})
	}
}

// BenchmarkAblationExecutionPruning measures end-to-end execution with and
// without column pruning over the wide table — the §3.3 performance claim.
func BenchmarkAblationExecutionPruning(b *testing.B) {
	const q = "select Symbol, Price, attr_000 from trades lj refdata where Size>4000"
	for _, c := range []struct {
		name string
		cfg  xformer.Config
	}{
		{"pruned", xformer.Config{}},
		{"unpruned", xformer.Config{DisableColumnPruning: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			db, ok := benchStacks[5000]
			if !ok {
				stackFor(b, 5000)
				db = benchStacks[5000]
			}
			backend := core.NewDirectBackend(db)
			s := core.NewPlatform().NewSession(backend, core.Config{Xformer: c.cfg, MDITTL: 5 * time.Minute})
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Run(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTranslationCache compares a cold translation (full
// parse/bind/xform/serialize pipeline every call) against a warm one served
// by the shared query-translation cache — the serving-runtime ablation
// EXPERIMENTS.md records.
func BenchmarkTranslationCache(b *testing.B) {
	const q = "select Symbol, Price, Close, Sector from trades lj daily lj refdata where Size>2000"
	for _, mode := range []struct {
		name    string
		entries int
	}{{"cold_no_cache", 0}, {"warm_cached", 1024}} {
		b.Run(mode.name, func(b *testing.B) {
			db, ok := benchStacks[5000]
			if !ok {
				stackFor(b, 5000)
				db = benchStacks[5000]
			}
			backend := core.NewDirectBackend(db)
			cfg := core.Config{MDITTL: 5 * time.Minute}
			var cache *qcache.Cache
			if mode.entries > 0 {
				cache = qcache.New(mode.entries)
				cfg.Cache = cache
			}
			s := core.NewPlatform().NewSession(backend, cfg)
			defer s.Close()
			// prime the MDI (both modes) and the cache (warm mode)
			if _, _, err := s.Translate(ctx, q); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Translate(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
			if cache != nil {
				b.ReportMetric(float64(cache.Stats().Hits)/float64(b.N), "hits/op")
			}
		})
	}
}

// e2eRows is the result size of the result-pipeline benchmarks.
const e2eRows = 100_000

// e2eSelectAll is the select-all the result-pipeline benchmarks convert.
const e2eSelectAll = "SELECT sym, price, size, venue FROM bench_trades"

// newBenchTradesDB loads a bench_trades fact table of n rows generated by a
// fixed LCG, so every run converts identical data; about 1 price in 97 is
// NULL.
func newBenchTradesDB(b *testing.B, n int) *pgdb.DB {
	b.Helper()
	db := pgdb.NewDB()
	if _, err := db.NewSession().Exec("CREATE TABLE bench_trades (sym varchar, price double precision, size bigint, venue bigint)"); err != nil {
		b.Fatal(err)
	}
	syms := []string{"GOOG", "IBM", "MSFT", "AAPL", "ORCL", "SAP", "TDC", "HPQ"}
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 17
	}
	rows := make([][]any, n)
	for i := range rows {
		sym := syms[next()%uint64(len(syms))]
		price := 50.0 + float64(next()%100000)/100.0
		size := int64(next()%1000) + 1
		venue := int64(next() % 16)
		if next()%97 == 0 {
			rows[i] = []any{sym, nil, size, venue}
		} else {
			rows[i] = []any{sym, price, size, venue}
		}
	}
	if err := db.InsertRows("bench_trades", rows); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkResultPipelineDirect compares the two result pipelines on the
// typed-result conversion of a 100k-row select-all: "text" renders every
// cell to text and re-parses it (ResultToQ over the materialized
// BackendResult), "columnar" streams the typed pgdb values into pooled
// column builders (FeedResult).
func BenchmarkResultPipelineDirect(b *testing.B) {
	res, err := newBenchTradesDB(b, e2eRows).NewSession().Exec(e2eSelectAll)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("text", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t, err := core.ResultToQ(core.ToBackendResult(res))
			if err != nil {
				b.Fatal(err)
			}
			if t.Len() != e2eRows {
				b.Fatal("short result")
			}
		}
	})
	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink := core.GetTableSink()
			if err := core.FeedResult(ctx, res, sink); err != nil {
				b.Fatal(err)
			}
			if sink.Table().Len() != e2eRows {
				b.Fatal("short result")
			}
			sink.Release()
		}
	})
}

// BenchmarkResultPipelinePgv3 compares the result pipelines over the PG v3
// wire on a 100k-row select-all: "text" collects DataRows into a
// materialized result and re-parses it, "columnar" decodes each DataRow
// straight into the pooled builders (QueryStream behind Gateway.ExecStream).
// Against the "replay" server, which answers every query with a prebuilt
// byte stream, only the client pipeline is measured; against "pgdb" the
// in-process server's execution and encoding are included.
func BenchmarkResultPipelinePgv3(b *testing.B) {
	db := newBenchTradesDB(b, e2eRows)
	res, err := db.NewSession().Exec(e2eSelectAll)
	if err != nil {
		b.Fatal(err)
	}
	for _, server := range []struct {
		name  string
		serve func(l net.Listener)
	}{
		{"replay", func(l net.Listener) { serveReplay(l, pgStream(res)) }},
		{"pgdb", func(l net.Listener) {
			pgdb.Serve(context.Background(), l, db, pgdb.AuthConfig{Method: pgv3.AuthMethodTrust})
		}},
	} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { l.Close() })
		go server.serve(l)
		gw, err := gateway.Dial(ctx, l.Addr().String(), "hq", "", "db")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { gw.Close() })
		b.Run(server.name+"/text", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				br, err := gw.Exec(ctx, e2eSelectAll)
				if err != nil {
					b.Fatal(err)
				}
				t, err := core.ResultToQ(br)
				if err != nil {
					b.Fatal(err)
				}
				if t.Len() != e2eRows {
					b.Fatal("short result")
				}
			}
		})
		b.Run(server.name+"/columnar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink := core.GetTableSink()
				if err := gw.ExecStream(ctx, e2eSelectAll, sink); err != nil {
					b.Fatal(err)
				}
				if sink.Table().Len() != e2eRows {
					b.Fatal("short result")
				}
				sink.Release()
			}
		})
	}
}

// frameMsg builds one typed PG v3 message.
func frameMsg(typ byte, body []byte) []byte {
	out := make([]byte, 0, 5+len(body))
	out = append(out, typ)
	out = binary.BigEndian.AppendUint32(out, uint32(len(body)+4))
	return append(out, body...)
}

// pgStream renders a result as the raw PG v3 byte stream a backend sends for
// one simple query: RowDescription, DataRows, CommandComplete,
// ReadyForQuery. Prebuilding it keeps server-side encoding out of the
// measured client pipeline.
func pgStream(res *pgdb.Result) []byte {
	var body []byte
	body = binary.BigEndian.AppendUint16(body, uint16(len(res.Cols)))
	for _, c := range res.Cols {
		body = append(append(body, c.Name...), 0)
		body = binary.BigEndian.AppendUint32(body, 0) // table oid
		body = binary.BigEndian.AppendUint16(body, 0) // attnum
		body = binary.BigEndian.AppendUint32(body, pgv3.OIDForType(c.Type))
		body = binary.BigEndian.AppendUint16(body, 0) // typlen
		body = binary.BigEndian.AppendUint32(body, 0) // typmod
		body = binary.BigEndian.AppendUint16(body, 0) // text format
	}
	stream := frameMsg('T', body)
	for _, row := range res.Rows {
		body = body[:0]
		body = binary.BigEndian.AppendUint16(body, uint16(len(row)))
		for j, v := range row {
			if v == nil {
				body = binary.BigEndian.AppendUint32(body, 0xffffffff)
				continue
			}
			text := pgdb.FormatValue(v, res.Cols[j].Type)
			body = binary.BigEndian.AppendUint32(body, uint32(len(text)))
			body = append(body, text...)
		}
		stream = append(stream, frameMsg('D', body)...)
	}
	stream = append(stream, frameMsg('C', append([]byte(res.Tag), 0))...)
	return append(stream, frameMsg('Z', []byte{'I'})...)
}

// serveReplay accepts PG v3 connections on l, completes the trust handshake
// and answers every query by replaying stream verbatim, until l is closed.
func serveReplay(l net.Listener, stream []byte) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			sc := pgv3.NewServerConn(conn)
			defer sc.Close()
			if err := sc.Startup(); err != nil {
				return
			}
			if err := sc.Authenticate(pgv3.AuthMethodTrust, nil); err != nil {
				return
			}
			for {
				if _, err := sc.ReadQuery(); err != nil {
					return
				}
				if _, err := conn.Write(stream); err != nil {
					return
				}
			}
		}()
	}
}

// BenchmarkServeTrade measures one select-all round trip through the QIPC
// endpoint and the cross compiler under each result path, on two stacks:
// "networked" is the full serving runtime (pooled PG v3 gateway to pgdb over
// TCP, 5,000 trades) and "embedded" a session on an in-process backend
// (20,000 trades).
func BenchmarkServeTrade(b *testing.B) {
	const q = "select Symbol, Price, Size from trades"
	for _, stack := range []struct {
		name   string
		trades int
		start  func(b *testing.B, path core.ResultPath) string
	}{
		{"networked", 5000, func(b *testing.B, path core.ResultPath) string {
			return startServingStack(b, 4, 1024, path)
		}},
		{"embedded", 20000, func(b *testing.B, path core.ResultPath) string {
			return startEmbeddedServing(b, 20000, path)
		}},
	} {
		for _, mode := range []struct {
			name string
			path core.ResultPath
		}{{"columnar", core.ColumnarPath}, {"text", core.TextPath}} {
			b.Run(stack.name+"/"+mode.name, func(b *testing.B) {
				addr := stack.start(b, mode.path)
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { conn.Close() })
				if err := qipc.ClientHandshake(conn, "bench", ""); err != nil {
					b.Fatal(err)
				}
				roundTrip := func() error {
					if err := qipc.WriteMessage(conn, qipc.Sync, qval.CharVec(q)); err != nil {
						return err
					}
					msg, err := qipc.ReadMessage(conn)
					if err != nil {
						return err
					}
					if qe, ok := msg.Value.(*qval.QError); ok {
						return fmt.Errorf("query error: %s", qe.Msg)
					}
					if msg.Value.Len() != stack.trades {
						return fmt.Errorf("short result: %d rows", msg.Value.Len())
					}
					return nil
				}
				if err := roundTrip(); err != nil { // warm the session outside the timer
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := roundTrip(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// startEmbeddedServing serves QIPC sessions whose backend is an in-process
// pgdb holding a trades table of the given size, returning the endpoint
// address.
func startEmbeddedServing(b *testing.B, trades int, path core.ResultPath) string {
	b.Helper()
	db := pgdb.NewDB()
	data := taq.Generate(taq.Config{Seed: 1, Trades: trades})
	if err := core.LoadQTable(context.Background(), core.NewDirectBackend(db), "trades", data.Trades); err != nil {
		b.Fatal(err)
	}
	platform := core.NewPlatform()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	go endpoint.Serve(context.Background(), l, endpoint.Config{
		NewHandler: func(creds *qipc.Credentials) (endpoint.Handler, func(), error) {
			session := platform.NewSession(core.NewDirectBackend(db), core.Config{ResultPath: path})
			compiler := xc.New(session)
			return endpoint.HandlerFunc(func(ctx context.Context, q string) (qval.Value, error) {
				v, _, err := compiler.HandleQuery(ctx, q)
				return v, err
			}), func() { session.Close() }, nil
		},
	})
	return l.Addr().String()
}

// startServingStack brings up the full networked serving runtime for
// benchmarks: pgdb over TCP, a bounded gateway pool, a shared translation
// cache and MDI, and the QIPC endpoint, returning its address.
func startServingStack(b *testing.B, poolSize, cacheEntries int, path core.ResultPath) string {
	b.Helper()
	db := pgdb.NewDB()
	loader := core.NewDirectBackend(db)
	data := taq.Generate(taq.Config{Seed: 1, Trades: 5000, NumSymbols: 100})
	for _, tb := range []struct {
		name string
		tbl  *qval.Table
	}{{"trades", data.Trades}, {"quotes", data.Quotes}, {"daily", data.Daily}} {
		if err := core.LoadQTable(context.Background(), loader, tb.name, tb.tbl); err != nil {
			b.Fatal(err)
		}
	}
	pgL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pgL.Close() })
	go pgdb.Serve(context.Background(), pgL, db, pgdb.AuthConfig{
		Method: pgv3.AuthMethodMD5,
		Users:  map[string]string{"hq": "pw"},
	})

	backendPool := pool.New(pool.Config{
		Size: poolSize,
		Dial: func(ctx context.Context) (pool.Conn, error) {
			return gateway.Dial(ctx, pgL.Addr().String(), "hq", "pw", "db")
		},
		HealthCheck: true,
	})
	b.Cleanup(func() { backendPool.Close() })
	var cache *qcache.Cache
	if cacheEntries > 0 {
		cache = qcache.New(cacheEntries)
	}
	sharedMDI := mdi.New(backendPool.SessionBackend(), mdi.WithTTL(5*time.Minute))

	platform := core.NewPlatform()
	qL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { qL.Close() })
	go endpoint.Serve(context.Background(), qL, endpoint.Config{
		NewHandler: func(creds *qipc.Credentials) (endpoint.Handler, func(), error) {
			session := platform.NewSession(backendPool.SessionBackend(), core.Config{
				MDI:        sharedMDI,
				Cache:      cache,
				ResultPath: path,
			})
			compiler := xc.New(session)
			return endpoint.HandlerFunc(func(ctx context.Context, q string) (qval.Value, error) {
				v, _, err := compiler.HandleQuery(ctx, q)
				return v, err
			}), func() { session.Close() }, nil
		},
	})
	return qL.Addr().String()
}

// BenchmarkConcurrentSessions measures end-to-end throughput of the full
// TCP stack (QIPC endpoint -> cross compiler -> pooled PG v3 gateway ->
// backend) at increasing client fan-in; ns/op is per query across all
// clients.
func BenchmarkConcurrentSessions(b *testing.B) {
	const q = "select mx:max Price, vol:sum Size by Symbol from trades"
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			addr := startServingStack(b, 4, 1024, core.ColumnarPath)
			conns := make([]net.Conn, clients)
			for c := range conns {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { conn.Close() })
				if err := qipc.ClientHandshake(conn, fmt.Sprintf("app%d", c), ""); err != nil {
					b.Fatal(err)
				}
				conns[c] = conn
			}
			runQueries := func(conn net.Conn, n int) error {
				for i := 0; i < n; i++ {
					if err := qipc.WriteMessage(conn, qipc.Sync, qval.CharVec(q)); err != nil {
						return err
					}
					msg, err := qipc.ReadMessage(conn)
					if err != nil {
						return err
					}
					if qe, ok := msg.Value.(*qval.QError); ok {
						return fmt.Errorf("query error: %s", qe.Msg)
					}
				}
				return nil
			}
			// warm each session once (outside the timed region)
			for _, conn := range conns {
				if err := runQueries(conn, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for c := 0; c < clients; c++ {
				// split b.N queries across the clients
				n := b.N / clients
				if c < b.N%clients {
					n++
				}
				wg.Add(1)
				go func(conn net.Conn, n int) {
					defer wg.Done()
					if err := runQueries(conn, n); err != nil {
						errs <- err
					}
				}(conns[c], n)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkKdbBaselineVsHyperQ compares the same Q query on the in-memory
// kdb+ substrate and through the full Hyper-Q -> SQL stack, quantifying the
// real-time vs historical trade-off the paper's introduction motivates.
func BenchmarkKdbBaselineVsHyperQ(b *testing.B) {
	data := taq.Generate(taq.Config{Seed: 1, Trades: 5000, NumSymbols: 100})
	const q = "select mx:max Price, vol:sum Size by Symbol from trades"
	b.Run("kdb_substrate", func(b *testing.B) {
		in := newInterp(data)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := in.Eval(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hyperq_sql", func(b *testing.B) {
		s, _ := stackFor(b, 5000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Run(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchTable(n int) *qval.Table {
	syms := make(qval.SymbolVec, n)
	prices := make(qval.FloatVec, n)
	sizes := make(qval.LongVec, n)
	for i := 0; i < n; i++ {
		syms[i] = []string{"GOOG", "IBM", "MSFT", "AAPL"}[i%4]
		prices[i] = 100 + float64(i%97)/7
		sizes[i] = int64(100 * (i%17 + 1))
	}
	return qval.NewTable([]string{"Symbol", "Price", "Size"}, []qval.Value{syms, prices, sizes})
}

func newInterp(data *taq.Data) *interp.Interp {
	in := interp.New()
	in.SetGlobal("trades", data.Trades)
	in.SetGlobal("quotes", data.Quotes)
	in.SetGlobal("daily", data.Daily)
	return in
}
