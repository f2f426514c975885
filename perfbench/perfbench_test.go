package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"hyperq/internal/pgdb"
	"hyperq/internal/qlang/qval"
)

// tinyRun returns a test-sized configuration reading the command defaults
// from the enclosing checkout.
func tinyRun(t *testing.T) *runConfig {
	t.Helper()
	def, err := loadDefaults("..")
	if err != nil {
		t.Fatal(err)
	}
	return &runConfig{name: "test", root: t.TempDir(), workdir: t.TempDir(), seed: 7, seconds: 1, measured: time.Second, tiny: true, def: def}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string, workloadNames []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	for _, w := range spec.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return endToEnd, perLayer, workloadNames
}

// TestSmokeEmitsEveryMetric runs every workload at tiny size, untraced and
// traced, and checks that each declared metric is emitted and every
// operation passed its checks. It covers the workloads BENCHMARK.json
// leaves out too.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	endToEnd, perLayer, declared := benchmarkNames(t)
	for _, name := range declared {
		if _, ok := workloads[name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program lacks", name)
		}
	}
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := workloads[name]
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, env, err := runWorkload(w, tinyRun(t), traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d: %v",
						traced, res.Correct, res.Attempted, res.Failed, env["first_error"])
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				for _, m := range want {
					if _, ok := res.Metrics[m]; !ok {
						t.Errorf("traced=%v: metric %s not emitted", traced, m)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: emitted %d metrics, BENCHMARK.json declares %d", traced, len(res.Metrics), len(want))
				}
				if traced {
					for _, m := range []string{"pgdb.server_ms", "gateway.exec_ms", "trace.requests"} {
						if res.Metrics[m].Value <= 0 {
							t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
						}
					}
					if res.Metrics["trace.attribution_ok"].Value != 1 {
						t.Errorf("layer self-times leave %v ms unattributed", res.Metrics["trace.unattributed_ms"].Value)
					}
				}
			}
		})
	}
}

// TestCheckersCatchFaults shows that a corrupted response, a stale
// real-time answer and a missing acknowledged row each fail their check.
func TestCheckersCatchFaults(t *testing.T) {
	rc := tinyRun(t)

	t.Run("corrupted response", func(t *testing.T) {
		inst, err := lookup{}.setup(rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		in := inst.(*lookupInst)
		defer in.close()
		caught := 0
		var qs []*lookupQuery
		for _, texts := range in.universe {
			for i := range texts[:min(len(texts), 20)] {
				qs = append(qs, &texts[i])
			}
		}
		for _, q := range qs {
			v, raw, _, err := in.clients[0].query(q.text)
			if err != nil {
				t.Fatal(err)
			}
			if err := in.check(q, v, raw); err != nil {
				t.Fatalf("a correct answer failed its check: %v", err)
			}
			bad, ok := corrupt(t, v)
			if !ok {
				continue
			}
			badRaw := append([]byte(nil), raw...)
			badRaw[len(badRaw)-1] ^= 0xff
			if err := in.check(q, bad, badRaw); err == nil {
				t.Fatalf("corrupted answer to %q passed its check", q.text)
			}
			caught++
		}
		if caught == 0 {
			t.Fatal("no answer had a float cell to corrupt")
		}
	})

	t.Run("stale real-time answer and missing row", func(t *testing.T) {
		inst, err := hybrid{}.setup(rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		in := inst.(*hybridInst)
		defer in.close()
		if err := in.writeBatch(context.Background(), int(in.acked.Load())/hybridBatch); err != nil {
			t.Fatal(err)
		}
		// acknowledge the next batch without writing it: the store now lacks
		// an acknowledged batch, as if the write path had dropped it
		pretend := int(in.acked.Load()) + hybridBatch
		syms := in.all.Data[1].(qval.SymbolVec)[in.hist:]
		sym := string(syms[pretend-1]) // ticked in the unwritten batch
		q, check := in.realtimeFor(pretend, sym, false)
		v, raw, _, err := in.reader.query(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := check(v, raw); err == nil {
			t.Fatalf("real-time answer to %q that misses an acknowledged batch passed its check", q)
		}
		q, check = in.realtimeFor(int(in.acked.Load()), sym, false)
		if v, raw, _, err = in.reader.query(q); err != nil {
			t.Fatal(err)
		}
		if err := check(v, raw); err != nil {
			t.Fatalf("current real-time answer failed its check: %v", err)
		}

		in.acked.Store(int64(pretend))
		w := &window{}
		if err := in.finish(w); err != nil {
			t.Fatal(err)
		}
		if w.failed != 1 {
			t.Fatalf("reopen check with a missing acknowledged batch: failed=%d, want 1 (%s)", w.failed, w.firstError)
		}
	})
}

// corrupt returns v with its first float cell changed.
func corrupt(t *testing.T, v qval.Value) (qval.Value, bool) {
	t.Helper()
	tbl, ok := v.(*qval.Table)
	if !ok {
		return nil, false
	}
	for c, col := range tbl.Data {
		if f, ok := col.(qval.FloatVec); ok && len(f) > 0 {
			data := append([]qval.Value(nil), tbl.Data...)
			g := append(qval.FloatVec(nil), f...)
			g[0] += 1
			data[c] = g
			return qval.NewTable(tbl.Cols, data), true
		}
	}
	return nil, false
}

// TestTracedStackIsTransparent sends the same requests to an untraced and
// a traced deployment over identical data and requires byte-identical QIPC
// responses.
func TestTracedStackIsTransparent(t *testing.T) {
	rc := tinyRun(t)
	plain, err := analytical{}.setup(rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.close()
	tr := newTracer()
	tr.on.Store(true)
	traced, err := analytical{}.setup(rc, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer traced.close()
	a, b := plain.(*analyticalInst), traced.(*analyticalInst)
	queries := []string{"select from trades", "select count Price by Symbol from trades"}
	for _, q := range a.queries {
		queries = append(queries, q.Q)
	}
	for _, q := range queries {
		_, ra, _, errA := a.clients[0].query(q)
		_, rb, _, errB := b.clients[0].query(q)
		if errA != nil || errB != nil {
			t.Fatalf("%q: untraced err=%v traced err=%v", q, errA, errB)
		}
		if !bytes.Equal(ra, rb) {
			t.Errorf("%q: traced response differs from the untraced one (%d vs %d bytes)", q, len(rb), len(ra))
		}
	}
	if len(tr.take()) == 0 {
		t.Fatal("the traced deployment recorded no spans")
	}
}

// TestFlagDefaultsEvaluate checks the defaults reader on the expression
// shapes the commands use.
func TestFlagDefaultsEvaluate(t *testing.T) {
	src := `package main
import ("flag"; "time"; "hyperq/internal/pgdb")
var (
	a = flag.Duration("ttl", 5*time.Minute, "")
	b = flag.Int("n", -1, "")
	c = flag.String("mode", "batch", "")
	d = flag.Bool("on", true, "")
	e = flag.Int("rows", pgdb.DefaultIndexMinRows, "")
	f = flag.Int("odd", len("x"), "")
)`
	path := t.TempDir() + "/main.go"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := flagDefaults(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"ttl": int64(5 * 60e9), "n": int64(-1), "mode": "batch", "on": true, "rows": int64(pgdb.DefaultIndexMinRows)}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("-%s: got %v, want %v", k, got[k], v)
		}
	}
	if _, isErr := got["odd"].(error); !isErr {
		t.Errorf("-odd: got %v, want an evaluation error kept as the value", got["odd"])
	}

	// every knob the stack reads must be found: a flag missing from either
	// command fails rather than reading as zero
	hq, err := flagDefaults("../cmd/hyperq/main.go")
	if err != nil {
		t.Fatal(err)
	}
	pg, err := flagDefaults("../cmd/pgserver/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := defaultsFrom(hq, pg); err != nil {
		t.Fatalf("the commands' own defaults: %v", err)
	}
	read := map[string]map[string]any{
		"pool-size": hq, "cache-entries": hq, "mdi-ttl": hq, "result-path": hq, "drain-timeout": hq, "query-timeout": hq,
		"exec": pg, "parallel": pg, "index-min-rows": pg, "wal-sync": pg, "compress": pg, "mmap": pg,
	}
	for name, m := range read {
		v := m[name]
		delete(m, name)
		_, err := defaultsFrom(hq, pg)
		m[name] = v
		if err == nil || !strings.Contains(err.Error(), "-"+name+":") {
			t.Errorf("flag -%s removed: got error %v, want one naming it", name, err)
		}
	}
}

// TestMatchServers checks the pairing of server spans with gateway spans
// when two clients run the same text at once.
func TestMatchServers(t *testing.T) {
	const q = "SELECT 1"
	// both conns contain the first server span's start, a (the later start)
	// is tried first; only a contains the second's. A greedy pairing would
	// give a the first and leave b unpaired.
	a := &span{kind: spanConn, start: 6, end: 100, sql: q}
	b := &span{kind: spanConn, start: 5, end: 30, sql: q}
	s1 := &span{kind: spanServer, start: 10, end: 20, sql: q}
	s2 := &span{kind: spanServer, start: 50, end: 120, sql: q} // ends after a: a late clock read
	other := &span{kind: spanServer, start: 12, end: 15, sql: "SELECT 2"}
	got := matchServers(map[string][]*span{q: {a, b}}, []*span{s1, s2, other})
	if got[a] != s2 || got[b] != s1 || len(got) != 2 {
		t.Errorf("got a→%v b→%v (%d pairs), want a→s2 b→s1", got[a], got[b], len(got))
	}
}
