package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/gateway"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/sidebyside"
	"hyperq/internal/taq"
)

// The hybrid workload is the paper's title: real-time and historical
// analytics on one durable store. Several prior trading days of trades form
// one date-ordered table, checkpointed into day partitions and reopened cold
// under a memory budget of a quarter of the checkpointed column bytes. A
// feed loader appends today's ticks over its own PG v3 connection at a fixed
// offered rate (open loop), while one closed-loop QIPC reader mixes backtest
// fetches over cold history with real-time queries over today's partition.
// Three layers work here and nowhere else: persist fault-in and eviction,
// the large-result path, and the write path.
//
// The feed replays one trading day at the history's own tick density,
// compressed in time so the whole session fits in the measured window: each
// deployment's window is offered one history day of ticks, whatever its
// length. Today's partition therefore ends every run, traced or not, at the
// size of one history day.
type hybrid struct{}

const (
	hybridDays    = 4
	hybridPerDay  = 4_000
	hybridSymbols = 4
	// hybridBatch is the rows per INSERT, a chosen value: one history day
	// is then 400 INSERTs, so the write percentiles rest on hundreds of
	// samples, and in a 50 s window a batch is due every 125 ms, about
	// every ninth reader request.
	hybridBatch = 10
	// hybridBacktestShare of reader requests are backtest fetches over
	// history; the rest are real-time queries over today's partition. A
	// chosen value: under half, so latency_p50_ms is a real-time query, and
	// well over a tenth, so the requests above latency_p90_ms are mostly
	// backtests.
	hybridBacktestShare = 0.3
	hybridWarmBatches   = 4
	hybridWarmReads     = 60
)

var hybridFirstDay = qval.MkDate(2016, 6, 20)

type hybridInst struct {
	*deployment
	rc       *runConfig
	days     int
	perDay   int
	interval time.Duration // one batch due every interval
	hist     int           // history rows, [0, hist) of all
	all      *qval.Table   // history then today's ticks, the writer's source
	today    qval.Temporal
	budget   int64
	ckBytes  int64

	reader *qclient
	writer *gateway.Gateway
	rng    *rand.Rand
	acked  atomic.Int64 // today's rows acknowledged, a prefix of all[hist:]
	ckpt0  int          // checkpoint sequence when the set-up ended
	closed bool         // finish or close has released the deployment
	// per-symbol row numbers, for expected answers
	todayRows map[string][]int // offsets into all[hist:]
	histRows  map[string][]int
	symbols   []string
	answers   map[string]*answer // backtests, keyed by text
}

func (hybrid) setup(rc *runConfig, tr *tracer) (instance, error) {
	in := &hybridInst{rc: rc, days: hybridDays, perDay: hybridPerDay, answers: map[string]*answer{}}
	symbols, batch := hybridSymbols, hybridBatch
	if rc.tiny {
		in.days, in.perDay, symbols = 2, 3000, 4
	}
	in.today = qval.Temporal{T: qval.KDate, V: hybridFirstDay.V + int64(in.days)}
	// one history day of ticks over the deployment's measured time, after
	// the warm-up's; the spare tenth covers the schedule's rounding
	in.interval = rc.measured / time.Duration(in.perDay/batch)
	todayN := hybridWarmBatches*batch + in.perDay + in.perDay/10
	in.all = hybridData(rc.seed, in.days, in.perDay, symbols, todayN)
	in.hist = in.days * in.perDay

	dir, err := os.MkdirTemp(rc.workdir, "hybrid-")
	if err != nil {
		return nil, err
	}
	db, store, err := newDB(rc.def, dir, 0)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	b := core.NewDirectBackend(db)
	err = core.CreateQTable(ctx, b, "trades", in.all)
	if err == nil {
		err = core.LoadQTableRows(ctx, b, "trades", in.all, 0, in.hist)
	}
	b.Close()
	if err == nil {
		err = store.Checkpoint()
	}
	for _, n := range db.ResidentBytes() {
		in.ckBytes += n
	}
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	in.budget = in.ckBytes / 4
	db, store, err = newDB(rc.def, dir, in.budget)
	if err != nil {
		return nil, err
	}
	st, err := startStack(db, rc.def, tr)
	if err != nil {
		store.Close()
		return nil, err
	}
	in.deployment = &deployment{st: st, store: store, dir: dir}
	in.index()
	in.rng = rand.New(rand.NewSource(rc.seed*1000 + 200))
	if in.writer, err = st.dialWriter(ctx); err == nil {
		in.reader, err = dialQ(st.qAddr, 0, tr)
	}
	if err != nil {
		in.close()
		return nil, err
	}
	// warm-up: a few batches so today's partition exists, then a few
	// reads of each kind
	for k := 0; k < hybridWarmBatches; k++ {
		if err := in.writeBatch(ctx, k); err != nil {
			in.close()
			return nil, fmt.Errorf("warm-up write: %w", err)
		}
	}
	for k := 0; k < hybridWarmReads; k++ {
		q, check := in.nextRead()
		v, raw, _, err := in.reader.query(q)
		if err == nil {
			err = check(v, raw)
		}
		if err != nil {
			in.close()
			return nil, fmt.Errorf("warm-up %q: %w", q, err)
		}
	}
	in.ckpt0 = checkpointSeq(dir)
	return in, nil
}

// hybridData generates the history days and today's ticks as one
// date-ordered table. Today's times strictly increase, so a Time bound
// splits acknowledged rows from later ones exactly.
func hybridData(seed int64, days, perDay, symbols, todayN int) *qval.Table {
	var parts []*qval.Table
	for d := 0; d <= days; d++ {
		n := perDay
		if d == days {
			n = todayN
		}
		parts = append(parts, taq.Generate(taq.Config{
			Seed: seed*100 + int64(d), NumSymbols: symbols, Trades: n, Quotes: 1, WideCols: 1,
			Date: qval.Temporal{T: qval.KDate, V: hybridFirstDay.V + int64(d)},
		}).Trades)
	}
	today := parts[days]
	tcol, _ := today.Column("Time")
	tv := tcol.(qval.TemporalVec).V
	for i := 1; i < len(tv); i++ {
		if tv[i] <= tv[i-1] {
			tv[i] = tv[i-1] + 1
		}
	}
	cols := parts[0].Cols
	data := make([]qval.Value, len(cols))
	for c := range cols {
		v := parts[0].Data[c]
		for _, p := range parts[1:] {
			v = concat(v, p.Data[c])
		}
		data[c] = v
	}
	return qval.NewTable(cols, data)
}

// concat joins two vectors of the same type.
func concat(a, b qval.Value) qval.Value {
	switch x := a.(type) {
	case qval.SymbolVec:
		return append(x[:len(x):len(x)], b.(qval.SymbolVec)...)
	case qval.FloatVec:
		return append(x[:len(x):len(x)], b.(qval.FloatVec)...)
	case qval.LongVec:
		return append(x[:len(x):len(x)], b.(qval.LongVec)...)
	case qval.TemporalVec:
		return qval.TemporalVec{T: x.T, V: append(x.V[:len(x.V):len(x.V)], b.(qval.TemporalVec).V...)}
	}
	panic(fmt.Sprintf("concat: unexpected column type %T", a))
}

func (in *hybridInst) index() {
	in.todayRows, in.histRows = map[string][]int{}, map[string][]int{}
	syms, _ := in.all.Column("Symbol")
	for i, s := range syms.(qval.SymbolVec) {
		if i < in.hist {
			in.histRows[string(s)] = append(in.histRows[string(s)], i)
		} else {
			in.todayRows[string(s)] = append(in.todayRows[string(s)], i-in.hist)
		}
	}
	for s := range in.histRows {
		in.symbols = append(in.symbols, s)
	}
	sort.Strings(in.symbols)
}

// writeBatch sends today's batch k as one INSERT and marks it acknowledged.
func (in *hybridInst) writeBatch(ctx context.Context, k int) error {
	lo := in.hist + k*hybridBatch
	hi := lo + hybridBatch
	if hi > in.all.Len() {
		return fmt.Errorf("today's generated ticks are exhausted at batch %d", k)
	}
	if err := core.LoadQTableRows(ctx, in.writer, "trades", in.all, lo, hi); err != nil {
		return err
	}
	in.acked.Store(int64(hi - in.hist))
	return nil
}

// nextRead picks the reader's next request and its check.
func (in *hybridInst) nextRead() (string, checkFn) {
	if in.rng.Float64() < hybridBacktestShare {
		sym := in.symbols[in.rng.Intn(len(in.symbols))]
		d0 := in.rng.Intn(in.days)
		d1 := d0 + in.rng.Intn(3)
		if d1 >= in.days {
			d1 = in.days - 1
		}
		return in.backtest(sym, d0, d1)
	}
	return in.realtime()
}

// backtest fetches one symbol over past days d0..d1 from cold partitions.
func (in *hybridInst) backtest(sym string, d0, d1 int) (string, checkFn) {
	day := func(d int) string { return qDate(hybridFirstDay.V + int64(d)) }
	q := fmt.Sprintf("select Time, Price, Size from trades where Date within %s %s, Symbol=`%s", day(d0), day(d1), sym)
	return q, func(v qval.Value, raw []byte) error {
		if a, ok := in.answers[q]; ok {
			return a.check(v, raw)
		}
		var rows []int
		for _, r := range in.histRows[sym] {
			if d := r / in.perDay; d >= d0 && d <= d1 {
				rows = append(rows, r)
			}
		}
		want := takeRows(in.all, []string{"Time", "Price", "Size"}, rows)
		if diffs := sidebyside.Diff(want, v, floatTol); len(diffs) > 0 {
			return fmt.Errorf("backtest differs from the generated rows: %s", diffs[0])
		}
		in.answers[q] = &answer{raw: raw, v: v, rows: len(rows)}
		return nil
	}
}

// realtime asks for the last price or the VWAP of one symbol today, up to a
// Time bound between the last acknowledged tick and the next one, so the
// answer must include every acknowledged batch and the texts do not repeat.
func (in *hybridInst) realtime() (string, checkFn) {
	acked := int(in.acked.Load())
	// a symbol that has ticked today
	syms := in.all.Data[1].(qval.SymbolVec)[in.hist:]
	return in.realtimeFor(acked, string(syms[in.rng.Intn(acked)]), in.rng.Intn(2) == 0)
}

// realtimeFor builds the real-time query for sym as of the first acked
// ticks of today: the last price, or else the VWAP.
func (in *hybridInst) realtimeFor(acked int, sym string, last bool) (string, checkFn) {
	tcol, _ := in.all.Column("Time")
	tv := tcol.(qval.TemporalVec).V[in.hist:]
	bound := tv[acked-1]
	if acked < len(tv) {
		bound += in.rng.Int63n(tv[acked] - tv[acked-1])
	}
	rows := in.todayRows[sym]
	rows = rows[:sort.SearchInts(rows, acked)]
	where := fmt.Sprintf("where Date=%s, Symbol=`%s, Time<=%s", qDate(in.today.V), sym, qTime(bound))
	px := in.all.Data[3].(qval.FloatVec)[in.hist:]
	sz := in.all.Data[4].(qval.LongVec)[in.hist:]
	var q string
	var want *qval.Table
	if last {
		q = "select last Price from trades " + where
		want = qval.NewTable([]string{"Price"}, []qval.Value{qval.FloatVec{px[rows[len(rows)-1]]}})
	} else {
		q = "select vwap:Size wavg Price from trades " + where
		var num, den float64
		for _, r := range rows {
			num += float64(sz[r]) * px[r]
			den += float64(sz[r])
		}
		want = qval.NewTable([]string{"vwap"}, []qval.Value{qval.FloatVec{num / den}})
	}
	return q, func(v qval.Value, _ []byte) error {
		if diffs := sidebyside.Diff(want, v, floatTol); len(diffs) > 0 {
			return fmt.Errorf("real-time answer misses acknowledged ticks: %s", diffs[0])
		}
		return nil
	}
}

func (in *hybridInst) verify() error { return nil }

// run drives the open-loop writer and the closed-loop reader together.
func (in *hybridInst) run(deadline time.Time, w *window) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		in.runWriter(deadline, w)
	}()
	var o opLog
	for time.Now().Before(deadline) {
		q, check := in.nextRead()
		o.attempted++
		v, raw, rt, err := in.reader.query(q)
		if err == nil {
			err = check(v, raw)
		}
		if err != nil {
			o.fail(err)
			continue
		}
		o.ok(rt, len(raw))
	}
	wg.Wait()
	w.tally(&o)
}

// runWriter sends one batch per interval from the window's start. Each
// batch is timed from when it was due, so a stall also delays the batches
// queued behind it; how late each send started is recorded too.
func (in *hybridInst) runWriter(deadline time.Time, w *window) {
	ctx := context.Background()
	first := int(in.acked.Load()) / hybridBatch
	start := time.Now()
	wal := in.store.WALSize()
	var o opLog
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * in.interval)
		if !due.Before(deadline) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		o.attempted++
		if err := in.writeBatch(ctx, first+k); err != nil {
			o.fail(err)
			continue
		}
		w.writeLat = append(w.writeLat, time.Since(due))
		w.late = append(w.late, sent.Sub(due))
		w.ackRows += hybridBatch
		// the WAL restarts empty after each checkpoint
		if now := in.store.WALSize(); now >= wal {
			w.walBytes += now - wal
			wal = now
		} else {
			w.walBytes += now
			wal = now
		}
	}
	w.tally(&o) // the reader tallies only after the writer has returned
}

// finish shuts the deployment down the way cmd/pgserver does — final
// checkpoint, then close — and reopens the directory cold: the store must
// hold every acknowledged row and nothing else.
func (in *hybridInst) finish(w *window) error {
	in.closed = true
	in.reader.close()
	in.writer.Close()
	if err := in.st.close(); err != nil {
		return err
	}
	if err := in.store.Checkpoint(); err != nil {
		return err
	}
	w.checkpoints = checkpointSeq(in.dir) - in.ckpt0 - 1 // the final one is not in the run
	size, err := dirSize(in.dir)
	if err != nil {
		return err
	}
	w.diskBytes = size
	if err := in.store.Close(); err != nil {
		return err
	}
	w.attempted++
	if err := in.checkReopen(); err != nil {
		w.failed++
		if w.firstError == "" {
			w.firstError = err.Error()
		}
	}
	return os.RemoveAll(in.dir)
}

func (in *hybridInst) checkReopen() error {
	db, store, err := newDB(in.rc.def, in.dir, in.budget)
	if err != nil {
		return err
	}
	defer store.Close()
	acked := int(in.acked.Load())
	n, _ := db.TableRowCount("trades")
	if n != in.hist+acked {
		return fmt.Errorf("reopened store holds %d rows, want %d history + %d acknowledged", n, in.hist, acked)
	}
	b := core.NewDirectBackend(db)
	s := core.NewPlatform().NewSession(b, core.Config{})
	defer s.Close()
	v, _, err := s.Run(context.Background(), "select from trades where Date="+qDate(in.today.V))
	if err != nil {
		return err
	}
	rows := make([]int, acked)
	for i := range rows {
		rows[i] = in.hist + i
	}
	want := takeRows(in.all, in.all.Cols, rows)
	if diffs := sidebyside.Diff(want, v, 0); len(diffs) > 0 {
		return fmt.Errorf("reopened store's ticks differ from the acknowledged ones: %s", diffs[0])
	}
	return nil
}

func (in *hybridInst) close() error {
	if in.closed {
		return nil
	}
	in.closed = true
	if in.reader != nil {
		in.reader.close()
	}
	if in.writer != nil {
		in.writer.Close()
	}
	err := in.st.close()
	if cerr := in.store.Close(); err == nil {
		err = cerr
	}
	os.RemoveAll(in.dir)
	return err
}

func (in *hybridInst) sizes() map[string]int {
	return map[string]int{
		"history_days": in.days, "history_rows": in.hist, "rows_per_day": in.perDay,
		"symbols": len(in.histRows), "today_rows_acked": int(in.acked.Load()),
		"checkpointed_column_bytes": int(in.ckBytes), "mem_budget_bytes": int(in.budget),
		"batch_rows": hybridBatch, "batch_interval_us": int(in.interval / time.Microsecond),
		"offered_rows_per_s": int(time.Second * hybridBatch / in.interval),
		"qcache_entries":     in.st.cacheCap,
	}
}

// takeRows selects rows of the named columns of t.
func takeRows(t *qval.Table, cols []string, rows []int) *qval.Table {
	data := make([]qval.Value, len(cols))
	for j, c := range cols {
		col, _ := t.Column(c)
		data[j] = qval.TakeIndexes(col, rows)
	}
	return qval.NewTable(append([]string(nil), cols...), data)
}

// qDate spells a day number as a q date literal.
func qDate(days int64) string {
	return qval.TimeFromDate(days).Format("2006.01.02")
}

// checkpointSeq reads the live checkpoint's sequence number from the data
// directory (0 when there is none).
func checkpointSeq(dir string) int {
	b, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		return 0
	}
	n, _ := strconv.Atoi(strings.TrimPrefix(strings.TrimSpace(string(b)), "ckpt-"))
	return n
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}
