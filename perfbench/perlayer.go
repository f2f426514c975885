package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"hyperq/internal/mdi"
	"hyperq/internal/persist"
	"hyperq/internal/pool"
	"hyperq/internal/qcache"
)

// deployment is what a workload set up: the serving stack and, for the
// durable store, the persist layer and its directory.
type deployment struct {
	st    *stack
	store *persist.Store
	dir   string
}

func (d *deployment) parts() *deployment { return d }

// counters is one snapshot of every layer's own counters.
type counters struct {
	qcache  qcache.Stats
	mdi     mdi.Stats
	pool    pool.Stats
	idx     map[string]int64
	persist persist.StatsSnapshot
}

func snapshot(d *deployment) counters {
	c := counters{mdi: d.st.mdi.Stats(), pool: d.st.pool.Stats(), idx: d.st.db.IndexStats().Vars()}
	if d.st.cache != nil {
		c.qcache = d.st.cache.Stats()
	}
	if d.store != nil {
		c.persist = d.store.Stats().Snapshot()
	}
	return c
}

// counterDelta holds the snapshots taken around the traced window.
type counterDelta struct{ before, after counters }

func takeCounters(inst instance) *counterDelta {
	return &counterDelta{before: snapshot(inst.parts())}
}

func (c *counterDelta) end(inst instance) { c.after = snapshot(inst.parts()) }

// attributionTolerance is how much of the mean client round trip the layer
// self-times may leave unaccounted before the run is flagged.
const attributionTolerance = 0.03

// perLayer turns the traced window's spans and counters into the per-layer
// metrics. plain is the untraced window of an identical deployment run in
// turns with the traced one: the tracing overhead is measured against it,
// and the write path's latencies, which tracing would disturb, come from it.
func perLayer(spans []span, tr *tracer, cd *counterDelta, plain, traced *window) *result {
	m := map[string]metric{}
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// group spans by request; server spans are paired with conn spans
	// afterwards
	type req struct {
		client, handler *span
		backends, conns []*span
	}
	reqs := map[uint64]*req{}
	reqOf := func(id uint64) *req {
		r := reqs[id]
		if r == nil {
			r = &req{}
			reqs[id] = r
		}
		return r
	}
	connsBySQL := map[string][]*span{}
	var servers []*span
	for i := range spans {
		s := &spans[i]
		switch s.kind {
		case spanClient:
			reqOf(s.req).client = s
		case spanHandler:
			reqOf(s.req).handler = s
		case spanBackend:
			reqOf(s.req).backends = append(reqOf(s.req).backends, s)
		case spanConn:
			reqOf(s.req).conns = append(reqOf(s.req).conns, s)
			connsBySQL[s.sql] = append(connsBySQL[s.sql], s)
		case spanCatalog:
			// matched only so its server span is not taken for a write
			connsBySQL[s.sql] = append(connsBySQL[s.sql], s)
		case spanServer:
			servers = append(servers, s)
		}
	}
	serverOf := matchServers(connsBySQL, servers)
	var inserts []*span
	owned := map[*span]bool{}
	for _, s := range serverOf {
		owned[s] = true
	}
	for _, s := range servers {
		if !owned[s] && strings.HasPrefix(s.sql, "INSERT") {
			inserts = append(inserts, s)
		}
	}

	var n, misses, unmatched float64
	var sum struct {
		client, endpointSelf, xcSelf, parse, bind, xform, ser, execute                   float64
		poolWait, gwExec, gwClient, server, firstRow, sentKB, respKB, rows, unattributed float64
	}
	for _, r := range reqs {
		if r.client == nil || r.handler == nil || r.handler.stats == nil {
			continue // straddled the window's edge
		}
		n++
		st := r.handler.stats
		c := float64(r.client.end - r.client.start)
		h := float64(r.handler.end - r.handler.start)
		stages := float64(st.Stages.Translation())
		exec := float64(st.Execute)
		if !st.CacheHit {
			misses++
			sum.parse += float64(st.Stages.Parse)
			sum.bind += float64(st.Stages.Bind)
			sum.xform += float64(st.Stages.Xform)
			sum.ser += float64(st.Stages.Serialize)
		}
		var sb, g, p float64
		for _, b := range r.backends {
			sb += float64(b.end - b.start)
		}
		for _, cs := range r.conns {
			g += float64(cs.end - cs.start)
			sum.rows += float64(cs.n)
			s := serverOf[cs]
			if s == nil {
				unmatched++
				continue
			}
			// the server's clock stops after its last write returns, which
			// on a busy host can be after the client has read the reply
			end := min(s.end, cs.end)
			p += float64(end - s.start)
			if s.first != 0 {
				sum.firstRow += float64(min(s.first, end) - s.start)
			} else {
				sum.firstRow += float64(end - s.start)
			}
			sum.sentKB += float64(s.n) / 1024
		}
		endpointSelf := math.Max(0, c-h)
		xcSelf := math.Max(0, h-stages-exec)
		poolSelf := math.Max(0, sb-g)
		gatewaySelf := math.Max(0, g-p)
		sum.client += c
		sum.endpointSelf += endpointSelf
		sum.xcSelf += xcSelf
		sum.execute += exec
		sum.poolWait += poolSelf
		sum.gwExec += g
		sum.gwClient += gatewaySelf
		sum.server += p
		sum.respKB += float64(r.client.n) / 1024
		sum.unattributed += c - (endpointSelf + xcSelf + stages + poolSelf + gatewaySelf + p)
	}
	const msPerNs = 1e-6
	put("endpoint.self_ms", "ms", div(sum.endpointSelf, n)*msPerNs)
	put("endpoint.resp_kb", "KiB", div(sum.respKB, n))
	put("xc.self_ms", "ms", div(sum.xcSelf, n)*msPerNs)
	put("core.parse_ms", "ms", div(sum.parse, misses)*msPerNs)
	put("binder.bind_ms", "ms", div(sum.bind, misses)*msPerNs)
	put("xformer.xform_ms", "ms", div(sum.xform, misses)*msPerNs)
	put("serializer.serialize_ms", "ms", div(sum.ser, misses)*msPerNs)
	put("core.execute_ms", "ms", div(sum.execute, n)*msPerNs)
	put("pool.wait_ms", "ms", div(sum.poolWait, n)*msPerNs)
	put("gateway.exec_ms", "ms", div(sum.gwExec, n)*msPerNs)
	put("gateway.client_ms", "ms", div(sum.gwClient, n)*msPerNs)
	put("gateway.rows", "count", div(sum.rows, n))
	put("pgdb.server_ms", "ms", div(sum.server, n)*msPerNs)
	put("pgdb.first_row_ms", "ms", div(sum.firstRow, n)*msPerNs)
	put("pgdb.sent_kb", "KiB", div(sum.sentKB, n))

	b, a := cd.before, cd.after
	put("qcache.hit_ratio", "ratio", div(float64(a.qcache.Hits-b.qcache.Hits),
		float64(a.qcache.Hits-b.qcache.Hits+a.qcache.Misses-b.qcache.Misses)))
	put("qcache.evictions", "count", div(float64(a.qcache.Evictions-b.qcache.Evictions), n))
	put("mdi.hit_ratio", "ratio", div(float64(a.mdi.Hits-b.mdi.Hits), float64(a.mdi.Lookups-b.mdi.Lookups)))
	put("mdi.catalog_rts", "count", div(float64(a.mdi.CatalogRTs-b.mdi.CatalogRTs), n))
	put("pool.checkouts", "count", div(float64(a.pool.Checkouts-b.pool.Checkouts), n))
	put("pool.pings", "count", div(float64(tr.pings.Load()), n))
	put("pool.dials", "count", div(float64(a.pool.Dials-b.pool.Dials), n))
	for _, k := range []string{"index_hits", "index_builds", "index_invalidations", "asof_hits"} {
		put("pgdb."+k, "count", div(float64(a.idx["pgdb."+k]-b.idx["pgdb."+k]), n))
	}
	var ins float64
	for _, s := range inserts {
		ins += float64(s.end - s.start)
	}
	put("pgdb.insert_ms", "ms", div(ins, float64(len(inserts)))*msPerNs)
	put("persist.columns_faulted", "count", div(float64(a.persist.ColumnsFaulted-b.persist.ColumnsFaulted), n))
	put("persist.bytes_read_kb", "KiB", div(float64(a.persist.BytesRead-b.persist.BytesRead)/1024, n))
	put("persist.chunks_decoded", "count", div(float64(a.persist.ChunksDecoded-b.persist.ChunksDecoded), n))
	put("persist.evictions", "count", div(float64(a.persist.Evictions-b.persist.Evictions), n))
	put("persist.wal_bytes_per_row", "B", div(float64(traced.walBytes), float64(traced.ackRows)))
	put("persist.checkpoints", "count", float64(traced.checkpoints))

	// the runtime's figures from the untraced window, like the write path:
	// the traced window's allocations include the spans themselves
	put("go.alloc_kb_per_query", "KiB", div(float64(plain.allocBytes)/1024, float64(plain.completed())))
	put("go.gc_cpu_frac", "ratio", div(plain.gcCPU, plain.totalCPU))

	// the write path from the untraced window: tracing adds a span per
	// INSERT, so its latency is taken where nothing was wrapped
	put("ingest.write_p50_ms", "ms", ms(quantile(plain.writeLat, 0.50)))
	put("ingest.write_p99_ms", "ms", ms(quantile(plain.writeLat, 0.99)))
	put("ingest.rows_per_s", "1/s", div(float64(plain.ackRows), plain.elapsed.Seconds()))
	put("ingest.late_p99_ms", "ms", ms(quantile(plain.late, 0.99)))
	put("persist.disk_mb", "MiB", float64(plain.diskBytes)/(1<<20))

	unattributed := div(sum.unattributed, n) * msPerNs
	meanClient := div(sum.client, n) * msPerNs
	put("trace.unattributed_ms", "ms", unattributed)
	plainQPS := div(float64(plain.completed()), plain.elapsed.Seconds())
	tracedQPS := div(float64(traced.completed()), traced.elapsed.Seconds())
	put("trace.overhead_frac", "ratio", div(plainQPS-tracedQPS, plainQPS))
	// The self-times telescope to the round trip whatever the matching
	// did, so a gateway statement that no server span was matched to is
	// flagged on its own: its server time would read as gateway time.
	put("trace.unmatched_conns", "count", unmatched)
	ok := 1.0
	if math.Abs(unattributed) > attributionTolerance*meanClient {
		ok = 0
		fmt.Fprintf(os.Stderr, "perfbench: layer self-times leave %.4f ms of the %.4f ms mean round trip unattributed (over %.0f%%)\n",
			unattributed, meanClient, attributionTolerance*100)
	}
	if unmatched > 0 {
		ok = 0
		fmt.Fprintf(os.Stderr, "perfbench: %.0f gateway statements have no server span\n", unmatched)
	}
	put("trace.attribution_ok", "bool", ok)
	put("trace.requests", "count", n)

	res := &result{
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   m,
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// matchServers pairs server spans with the conn (or catalog) spans that
// issued them, returning each paired conn span's server span. A server span
// fits a conn span with its SQL text whose interval contains the server
// span's start. Its end is not required to fall inside: it is read after the
// server's last write returns, which can be after the client has already
// read the reply and closed its span. Two sessions can send the same text at
// once, so a server span may fit more than one conn span; the pairing is a
// maximum matching, found by augmenting paths, so a conn span is left
// unpaired only when no pairing covers it.
func matchServers(connsBySQL map[string][]*span, servers []*span) map[*span]*span {
	// per text: conn spans by start, and the longest, to bound the search
	type group struct {
		conns  []*span
		maxDur int64
	}
	groups := map[string]*group{}
	for sql, cs := range connsBySQL {
		g := &group{conns: append([]*span(nil), cs...)}
		sort.Slice(g.conns, func(i, j int) bool { return g.conns[i].start < g.conns[j].start })
		for _, c := range cs {
			g.maxDur = max(g.maxDur, c.end-c.start)
		}
		groups[sql] = g
	}
	fits := func(s *span) []*span {
		g := groups[s.sql]
		if g == nil {
			return nil
		}
		var out []*span
		i := sort.Search(len(g.conns), func(i int) bool { return g.conns[i].start > s.start })
		for i--; i >= 0 && g.conns[i].start >= s.start-g.maxDur; i-- {
			if s.start <= g.conns[i].end {
				out = append(out, g.conns[i])
			}
		}
		return out
	}
	serverOf := map[*span]*span{}
	seen := map[*span]int{} // conn span -> last augmenting search that visited it
	var augment func(s *span, round int) bool
	augment = func(s *span, round int) bool {
		for _, c := range fits(s) {
			if seen[c] == round {
				continue
			}
			seen[c] = round
			if prev := serverOf[c]; prev == nil || augment(prev, round) {
				serverOf[c] = s
				return true
			}
		}
		return false
	}
	for i, s := range servers {
		augment(s, i+1)
	}
	return serverOf
}
