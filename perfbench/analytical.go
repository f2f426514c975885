package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/qlang/interp"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/sidebyside"
	"hyperq/internal/taq"
	"hyperq/internal/workload"
)

// The analytical workload is the paper's 25-query Analytical Workload over
// resident TAQ data, replayed in whole passes in a seeded order by one
// closed-loop client, as a Q application holding one connection does. pgdb
// execution — scans, group-by, lj and as-of joins — does most of the work;
// the ~50 translations fit in the translation cache, so translation does
// almost none after the warm-up. One client leaves the host's second CPU to
// the runtime, so the figures measure the program, not the hypervisor's
// sharing of two busy CPUs.
type analytical struct{}

const (
	analyticalClients = 1
	analyticalTrades  = 12_000
	// query12Prelude defines the scalar query 12 reads; every session runs
	// it once, as workload.RunAll does.
	query12Prelude = "avgpx: 100.0"
	// floatTol is the relative tolerance of the side-by-side comparison:
	// the q interpreter and pgdb may sum floats in different orders.
	floatTol = 1e-9
)

type analyticalInst struct {
	*deployment
	data    *taq.Data
	queries []workload.Query
	clients []*qclient
	rngs    []*rand.Rand
	orders  [][]int
	// answers holds each query's verified response frame and row count,
	// keyed by query text
	answers map[string]*answer
}

// answer is a checked response: every later response to the same text must
// carry the same rows.
type answer struct {
	raw  []byte
	v    qval.Value
	rows int
}

func (analytical) setup(rc *runConfig, tr *tracer) (instance, error) {
	ctx := context.Background()
	trades := analyticalTrades
	if rc.tiny {
		trades = 600
	}
	db, _, err := newDB(rc.def, "", 0)
	if err != nil {
		return nil, err
	}
	data, err := workload.Setup(ctx, core.NewDirectBackend(db), taq.Config{Seed: rc.seed, Trades: trades})
	if err != nil {
		return nil, err
	}
	st, err := startStack(db, rc.def, tr)
	if err != nil {
		return nil, err
	}
	in := &analyticalInst{
		deployment: &deployment{st: st},
		data:       data,
		queries:    workload.Queries(),
		answers:    map[string]*answer{},
	}
	if err := in.connect(rc, tr); err != nil {
		in.close()
		return nil, err
	}
	// warm-up: one whole pass per client fills the translation cache, the
	// metadata cache and pgdb's lazy indexes, and collects the answers
	for i := range in.clients {
		for range in.queries {
			q := in.queries[in.next(i)].Q
			v, raw, _, err := in.clients[i].query(q)
			if err != nil {
				in.close()
				return nil, fmt.Errorf("warm-up %q: %w", q, err)
			}
			if a, ok := in.answers[q]; ok {
				if err := a.check(v, raw); err != nil {
					in.close()
					return nil, fmt.Errorf("warm-up %q: %w", q, err)
				}
				continue
			}
			in.answers[q] = &answer{raw: raw, v: v, rows: rowCount(v)}
		}
	}
	return in, nil
}

func (in *analyticalInst) connect(rc *runConfig, tr *tracer) error {
	for i := 0; i < analyticalClients; i++ {
		c, err := dialQ(in.st.qAddr, i, tr)
		if err != nil {
			return err
		}
		in.clients = append(in.clients, c)
		in.rngs = append(in.rngs, rand.New(rand.NewSource(rc.seed*1000+int64(i))))
		in.orders = append(in.orders, nil)
		if _, _, _, err := c.query(query12Prelude); err != nil {
			return fmt.Errorf("prelude: %w", err)
		}
	}
	return nil
}

// next returns the index of client i's next query: whole passes over the
// workload, each in a fresh seeded order.
func (in *analyticalInst) next(i int) int {
	if len(in.orders[i]) == 0 {
		in.orders[i] = in.rngs[i].Perm(len(in.queries))
	}
	k := in.orders[i][0]
	in.orders[i] = in.orders[i][1:]
	return k
}

// verify compares every distinct answer against the q interpreter on the
// same generated data.
func (in *analyticalInst) verify() error {
	kdb := interp.New()
	for name, t := range map[string]*qval.Table{
		"trades": in.data.Trades, "quotes": in.data.Quotes,
		"refdata": in.data.RefData, "daily": in.data.Daily,
	} {
		kdb.SetGlobal(name, t)
	}
	if _, err := kdb.Eval(query12Prelude); err != nil {
		return err
	}
	for _, q := range in.queries {
		kv, err := kdb.Eval(q.Q)
		if err != nil {
			return fmt.Errorf("q%d on the q interpreter: %w", q.ID, err)
		}
		a := in.answers[q.Q]
		if diffs := sidebyside.Diff(kv, a.v, floatTol); len(diffs) > 0 {
			return fmt.Errorf("q%d differs from the q interpreter: %v", q.ID, diffs[0])
		}
		if n := rowCount(kv); n != a.rows {
			return fmt.Errorf("q%d returned %d rows, the q interpreter %d", q.ID, a.rows, n)
		}
	}
	return nil
}

func (in *analyticalInst) run(deadline time.Time, w *window) {
	closedLoop(in.clients, deadline, w, func(i int) (string, checkFn) {
		q := in.queries[in.next(i)].Q
		return q, in.answers[q].check
	})
}

// check accepts a response identical to the verified one; a response whose
// bytes differ must still hold the same rows.
func (a *answer) check(v qval.Value, raw []byte) error {
	if n := rowCount(v); n != a.rows {
		return fmt.Errorf("got %d rows, want %d", n, a.rows)
	}
	if bytes.Equal(raw, a.raw) {
		return nil
	}
	if diffs := sidebyside.Diff(a.v, v, floatTol); len(diffs) > 0 {
		return fmt.Errorf("answer changed: %s", diffs[0])
	}
	return nil
}

func (in *analyticalInst) finish(w *window) error { return in.close() }

func (in *analyticalInst) close() error {
	for _, c := range in.clients {
		c.close()
	}
	return in.st.close()
}

func (in *analyticalInst) sizes() map[string]int {
	return map[string]int{
		"trades": in.data.Trades.Len(), "quotes": in.data.Quotes.Len(),
		"refdata_rows": in.data.RefData.Len(), "refdata_cols": in.data.RefData.NumCols(),
		"daily": in.data.Daily.Len(), "distinct_queries": len(in.queries),
		"qcache_entries": in.st.cacheCap,
	}
}

// rowCount is the number of rows of a result: a table's or keyed table's
// length, a vector's length, 1 for an atom.
func rowCount(v qval.Value) int {
	switch x := v.(type) {
	case *qval.Table:
		return x.Len()
	case *qval.Dict:
		if t, ok := qval.Unkey(x); ok {
			return t.Len()
		}
	}
	if n := v.Len(); n >= 0 {
		return n
	}
	return 1
}
