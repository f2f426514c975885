package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hyperq/internal/core"
	"hyperq/internal/endpoint"
	"hyperq/internal/gateway"
	"hyperq/internal/mdi"
	"hyperq/internal/persist"
	"hyperq/internal/pgdb"
	"hyperq/internal/pool"
	"hyperq/internal/qcache"
	"hyperq/internal/qlang/qval"
	"hyperq/internal/wire/pgv3"
	"hyperq/internal/wire/qipc"
	"hyperq/internal/xc"
)

// Deployment settings: the only values the benchmark chooses itself.
const (
	pgUser     = "hyperq"
	pgPassword = "hyperq"
	pgDatabase = "hyperq"
)

// newDB opens the backend database the way cmd/pgserver does at its flag
// defaults; with dir set it is durable (persist.Open) under memBudget.
func newDB(def defaults, dir string, memBudget int64) (*pgdb.DB, *persist.Store, error) {
	db := pgdb.NewDB()
	if def.Exec != "" {
		mode, ok := map[string]pgdb.ExecMode{
			"compiled":    pgdb.ExecCompiled,
			"interpreted": pgdb.ExecInterpreted,
			"vectorized":  pgdb.ExecVectorized,
		}[def.Exec]
		if !ok {
			return nil, nil, fmt.Errorf("unknown pgserver -exec default %q", def.Exec)
		}
		db.SetExecMode(mode)
	}
	if def.Parallel != 0 {
		db.SetParallelism(int(def.Parallel))
	}
	db.SetIndexMinRows(int(def.IndexMinRows))
	if dir == "" {
		return db, nil, nil
	}
	sync, err := persist.ParseSyncMode(def.WALSync)
	if err != nil {
		return nil, nil, err
	}
	store, err := persist.Open(db, persist.Options{
		Dir: dir, Sync: sync, MemBudget: memBudget,
		Compress: def.Compress, MMap: def.MMap,
	})
	if err != nil {
		return nil, nil, err
	}
	return db, store, nil
}

// stack is the paper's Figure 1 deployment in one process: pgdb behind
// pgdb.Serve on loopback, a pool of gateway PG v3 connections to it, the
// shared metadata and translation caches, and one xc session per QIPC
// connection behind endpoint.Serve. It is assembled the way cmd/hyperq
// -backend assembles it.
type stack struct {
	db       *pgdb.DB
	pgAddr   string
	qAddr    string
	pool     *pool.Pool
	cache    *qcache.Cache
	cacheCap int
	mdi      *mdi.MDI

	mdiBackend core.Backend
	stop       context.CancelFunc
	pgDone     chan error
	qDone      chan error
	closeOnce  sync.Once
	closeErr   error
}

// startStack serves db over PG v3 and QIPC on loopback ports. A non-nil
// tracer wraps the public seams between layers.
func startStack(db *pgdb.DB, def defaults, tr *tracer) (*stack, error) {
	var path core.ResultPath
	switch def.ResultPath {
	case "columnar", "":
		path = core.ColumnarPath
	case "text":
		path = core.TextPath
	default:
		return nil, fmt.Errorf("unknown hyperq -result-path default %q", def.ResultPath)
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &stack{db: db, cacheCap: int(def.CacheEntries), stop: stop, pgDone: make(chan error, 1), qDone: make(chan error, 1)}

	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		stop()
		return nil, err
	}
	s.pgAddr = pl.Addr().String()
	var pgl net.Listener = pl
	if tr != nil {
		pgl = tr.wrapListener(pl)
	}
	go func() {
		s.pgDone <- pgdb.Serve(ctx, pgl, db, pgdb.AuthConfig{
			Method: pgv3.AuthMethodMD5,
			Users:  map[string]string{pgUser: pgPassword},
		})
	}()

	s.pool = pool.New(pool.Config{
		Size: int(def.PoolSize),
		Dial: func(ctx context.Context) (pool.Conn, error) {
			g, err := gateway.Dial(ctx, s.pgAddr, pgUser, pgPassword, pgDatabase)
			if err != nil {
				return nil, err
			}
			if tr != nil {
				return tr.wrapConn(g), nil
			}
			return g, nil
		},
		QueryTimeout: def.QueryTimeout,
		HealthCheck:  true,
		DrainTimeout: def.DrainTimeout,
	})
	if def.CacheEntries > 0 {
		s.cache = qcache.New(int(def.CacheEntries))
	}
	s.mdiBackend = s.pool.SessionBackend()
	s.mdi = mdi.New(s.mdiBackend, mdi.WithTTL(def.MDITTL))

	ql, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.qAddr = ql.Addr().String()
	platform := core.NewPlatform()
	go func() {
		s.qDone <- endpoint.Serve(ctx, ql, endpoint.Config{
			NewHandler: func(creds *qipc.Credentials) (endpoint.Handler, func(), error) {
				var sb core.Backend = s.pool.SessionBackend()
				if tr != nil {
					sb = tr.wrapBackend(sb)
				}
				session := platform.NewSession(sb, core.Config{
					MDI:        s.mdi,
					Cache:      s.cache,
					ResultPath: path,
				})
				compiler := xc.New(session)
				var h endpoint.Handler = endpoint.HandlerFunc(func(ctx context.Context, q string) (qval.Value, error) {
					v, _, err := compiler.HandleQuery(ctx, q)
					return v, err
				})
				if tr != nil {
					h = tr.wrapHandler(compiler, creds.User)
				}
				return h, func() { session.Close() }, nil
			},
			DrainTimeout: def.DrainTimeout,
		})
	}()
	return s, nil
}

// close drains the QIPC endpoint, the pool and the PG v3 server, and waits
// for each serving goroutine to return. Later calls return the first
// call's result.
func (s *stack) close() error {
	s.closeOnce.Do(func() {
		s.stop()
		var errs []error
		if s.qAddr != "" {
			errs = append(errs, <-s.qDone)
		}
		errs = append(errs, s.mdiBackend.Close(), s.pool.Close())
		errs = append(errs, <-s.pgDone)
		s.closeErr = errors.Join(errs...)
	})
	return s.closeErr
}

// dialWriter opens the feed loader's PG v3 connection, straight to pgdb.
func (s *stack) dialWriter(ctx context.Context) (*gateway.Gateway, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	return gateway.Dial(ctx, s.pgAddr, pgUser, pgPassword, pgDatabase)
}
