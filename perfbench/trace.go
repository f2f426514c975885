package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/pool"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/xc"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanClient  spanKind = iota // the benchmark's QIPC client: request written to response decoded
	spanHandler                 // the endpoint.Handler around xc.CrossCompiler.HandleQuery
	spanBackend                 // the core.Backend handed to Platform.NewSession
	spanConn                    // a pool.Conn (gateway) Exec/ExecStream
	spanCatalog                 // a pool.Conn QueryCatalog (metadata lookups)
	spanServer                  // pgdb's side of the socket: Query read to ReadyForQuery written
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's base. req is the request id carried in the request
// context; server spans carry none and are attached afterwards to the conn
// span whose interval contains them and whose SQL they carry.
type span struct {
	kind       spanKind
	req        uint64
	start, end int64
	first      int64  // server: first DataRow written (0 = none)
	sql        string // conn, catalog, server
	n          int64  // client: response bytes; conn: rows delivered; server: bytes sent
	stats      *core.RunStats
}

var spanKindNames = [...]string{"client", "handler", "backend", "conn", "catalog", "server"}

// writeSpans writes the recorded spans as gzipped JSON lines, one span a
// line. The statement text is written once, on the gateway span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	type line struct {
		Kind    string `json:"kind"`
		Req     uint64 `json:"req,omitempty"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		FirstNS int64  `json:"first_row_ns,omitempty"`
		SQL     string `json:"sql,omitempty"`
		N       int64  `json:"n,omitempty"`
		Hit     bool   `json:"qcache_hit,omitempty"`
	}
	for i := range spans {
		s := &spans[i]
		l := line{Kind: spanKindNames[s.kind], Req: s.req, StartNS: s.start, EndNS: s.end, FirstNS: s.first, N: s.n}
		if s.kind == spanConn || s.kind == spanCatalog {
			l.SQL = s.sql // a backend or server span carries its conn span's text
		}
		if s.stats != nil {
			l.Hit = s.stats.CacheHit
		}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer records spans in memory while on; they are analysed when the run
// ends.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	pings atomic.Int64
	// servers counts the traced PG v3 server sockets not yet closed. A
	// server span is added after its last write returns, which can be
	// after the client has its reply, so the spans are complete only once
	// every socket has closed.
	servers sync.WaitGroup

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(s span) {
	if t.on.Load() {
		t.add(s)
	}
}

// add keeps s whether or not the tracer is still on.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// waitServers waits, up to limit, until every traced server socket has
// closed, so that each server span is recorded. Call it after the stack
// has closed.
func (t *tracer) waitServers(limit time.Duration) error {
	done := make(chan struct{})
	go func() {
		t.servers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(limit):
		return fmt.Errorf("traced PG v3 server sockets still open %v after the stack closed", limit)
	}
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

type reqKey struct{}

func reqID(ctx context.Context) uint64 {
	id, _ := ctx.Value(reqKey{}).(uint64)
	return id
}

// requestID numbers request seq of client id. The client and the handler
// derive it independently: each QIPC connection is one closed-loop client
// whose handshake user names it, and requests on it are handled in order.
func requestID(client int, seq uint64) uint64 { return uint64(client+1)<<40 | seq }

// clientOfUser parses the client number from the handshake user.
func clientOfUser(user string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(user, clientUserPrefix))
	if err != nil {
		return -1
	}
	return n
}

// --- endpoint.Handler seam ---

type traceHandler struct {
	t      *tracer
	xc     *xc.CrossCompiler
	client int
	seq    uint64
}

func (t *tracer) wrapHandler(x *xc.CrossCompiler, user string) *traceHandler {
	return &traceHandler{t: t, xc: x, client: clientOfUser(user)}
}

// HandleQuery implements endpoint.Handler, reading the RunStats the
// untraced handler discards.
func (h *traceHandler) HandleQuery(ctx context.Context, q string) (qval.Value, error) {
	id := requestID(h.client, h.seq)
	h.seq++
	start := h.t.now()
	v, stats, err := h.xc.HandleQuery(context.WithValue(ctx, reqKey{}, id), q)
	h.t.record(span{kind: spanHandler, req: id, start: start, end: h.t.now(), stats: stats})
	return v, err
}

// --- core.Backend seam (session side of the pool) ---

// traceBackend implements exactly core.Backend and core.StreamBackend, like
// pool.SessionBackend, so the session takes the same code paths.
type traceBackend struct {
	t *tracer
	b core.Backend
}

func (t *tracer) wrapBackend(b core.Backend) *traceBackend { return &traceBackend{t: t, b: b} }

func (b *traceBackend) Exec(ctx context.Context, sql string) (*core.BackendResult, error) {
	start := b.t.now()
	res, err := b.b.Exec(ctx, sql)
	b.t.record(span{kind: spanBackend, req: reqID(ctx), start: start, end: b.t.now(), sql: sql})
	return res, err
}

func (b *traceBackend) ExecStream(ctx context.Context, sql string, sink core.RowSink) error {
	start := b.t.now()
	err := b.b.(core.StreamBackend).ExecStream(ctx, sql, sink)
	b.t.record(span{kind: spanBackend, req: reqID(ctx), start: start, end: b.t.now(), sql: sql})
	return err
}

func (b *traceBackend) QueryCatalog(ctx context.Context, sql string) ([][]string, error) {
	return b.b.QueryCatalog(ctx, sql)
}

func (b *traceBackend) Close() error { return b.b.Close() }

// --- pool.Conn seam (gateway side of the pool) ---

type streamConn interface {
	pool.Conn
	core.StreamBackend
}

type traceConn struct {
	t *tracer
	c streamConn
}

func (t *tracer) wrapConn(c streamConn) *traceConn { return &traceConn{t: t, c: c} }

func (c *traceConn) Exec(ctx context.Context, sql string) (*core.BackendResult, error) {
	start := c.t.now()
	res, err := c.c.Exec(ctx, sql)
	var rows int64
	if res != nil {
		rows = int64(len(res.Rows))
	}
	c.t.record(span{kind: spanConn, req: reqID(ctx), start: start, end: c.t.now(), sql: sql, n: rows})
	return res, err
}

func (c *traceConn) ExecStream(ctx context.Context, sql string, sink core.RowSink) error {
	cs := &countSink{RowSink: sink}
	start := c.t.now()
	err := c.c.ExecStream(ctx, sql, cs)
	c.t.record(span{kind: spanConn, req: reqID(ctx), start: start, end: c.t.now(), sql: sql, n: cs.rows})
	return err
}

func (c *traceConn) QueryCatalog(ctx context.Context, sql string) ([][]string, error) {
	start := c.t.now()
	rows, err := c.c.QueryCatalog(ctx, sql)
	c.t.record(span{kind: spanCatalog, req: reqID(ctx), start: start, end: c.t.now(), sql: sql, n: int64(len(rows))})
	return rows, err
}

func (c *traceConn) Ping() error {
	if c.t.on.Load() {
		c.t.pings.Add(1)
	}
	return c.c.Ping()
}

func (c *traceConn) Close() error { return c.c.Close() }

// countSink counts the rows a stream delivers to the session's sink.
type countSink struct {
	core.RowSink
	rows int64
}

func (s *countSink) Row(vals []any) error {
	s.rows++
	return s.RowSink.Row(vals)
}

func (s *countSink) TextRow(fields [][]byte) error {
	s.rows++
	return s.RowSink.TextRow(fields)
}

// --- net.Listener seam (pgdb's PG v3 sockets) ---

type traceListener struct {
	net.Listener
	t *tracer
}

func (t *tracer) wrapListener(l net.Listener) net.Listener { return &traceListener{Listener: l, t: t} }

func (l *traceListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.t.servers.Add(1)
	sc := &serverConn{Conn: c, t: l.t}
	sc.in.untyped = true // the startup message has no type byte
	return sc, nil
}

// serverConn follows the PG v3 message framing in both directions of one
// server socket: a Query message opens a server span, the first DataRow
// written marks its first row, and ReadyForQuery written closes it.
type serverConn struct {
	net.Conn
	t *tracer

	closeOnce sync.Once

	mu      sync.Mutex
	in, out pgFramer
	open    bool // a Query was read and its ReadyForQuery not yet written
	// tracing is whether the tracer was on when the Query was read. The
	// span is kept on that alone: its end is read after the last write
	// returns, which can be after the client has its reply and the window
	// has closed.
	tracing bool
	sql     string
	start   int64
	first   int64
	sent    int64
}

func (c *serverConn) Close() error {
	err := c.Conn.Close()
	c.closeOnce.Do(c.t.servers.Done)
	return err
}

func (c *serverConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		now := c.t.now()
		c.mu.Lock()
		c.in.feed(b[:n], func(typ byte, body []byte) {
			if typ == 'Q' {
				sql, _, _ := strings.Cut(string(body), "\x00")
				c.open, c.tracing, c.sql, c.start, c.first, c.sent = true, c.t.on.Load(), sql, now, 0, 0
			}
		})
		c.mu.Unlock()
	}
	return n, err
}

func (c *serverConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if n > 0 {
		now := c.t.now()
		c.mu.Lock()
		if c.open {
			c.sent += int64(n)
		}
		c.out.feed(b[:n], func(typ byte, _ []byte) {
			switch {
			case !c.open:
			case typ == 'D' && c.first == 0:
				c.first = now
			case typ == 'Z':
				c.open = false
				if c.tracing {
					c.t.add(span{kind: spanServer, start: c.start, end: now, first: c.first, sql: c.sql, n: c.sent})
				}
			}
		})
		c.mu.Unlock()
	}
	return n, err
}

// pgFramer splits a PG v3 byte stream into messages: a type byte (absent on
// the startup message) and a 4-byte big-endian length that counts itself.
// Only Query bodies are kept, since only their text is needed.
type pgFramer struct {
	untyped bool
	hdr     [5]byte
	hn      int
	left    int
	typ     byte
	body    []byte
}

func (f *pgFramer) feed(b []byte, onMsg func(typ byte, body []byte)) {
	for len(b) > 0 {
		if f.left == 0 {
			need := 5
			if f.untyped {
				need = 4
			}
			k := copy(f.hdr[f.hn:need], b)
			f.hn += k
			b = b[k:]
			if f.hn < need {
				return
			}
			if f.untyped {
				f.typ, f.left = 0, int(binary.BigEndian.Uint32(f.hdr[:4]))-4
				f.untyped = false
			} else {
				f.typ, f.left = f.hdr[0], int(binary.BigEndian.Uint32(f.hdr[1:5]))-4
			}
			f.hn = 0
			f.body = f.body[:0]
			if f.left <= 0 {
				f.left = 0
				onMsg(f.typ, nil)
				continue
			}
		}
		k := f.left
		if k > len(b) {
			k = len(b)
		}
		if f.typ == 'Q' {
			f.body = append(f.body, b[:k]...)
		}
		f.left -= k
		b = b[k:]
		if f.left == 0 {
			onMsg(f.typ, f.body)
		}
	}
}
