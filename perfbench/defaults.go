package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"time"

	"hyperq/internal/pgdb"
)

// defaults holds the serving knobs of the deployment, read from the flag
// defaults of cmd/hyperq and cmd/pgserver at run time. Reading them from the
// command sources, instead of copying them here, means a change to a default
// (executor, pool size, cache size, WAL sync) is measured as exactly that
// change, with no edit to the benchmark. The benchmark itself sets only
// deployment settings: addresses, auth, data directory and memory budget.
type defaults struct {
	PoolSize     int64
	CacheEntries int64
	MDITTL       time.Duration
	ResultPath   string
	DrainTimeout time.Duration
	QueryTimeout time.Duration
	Exec         string
	Parallel     int64
	IndexMinRows int64
	WALSync      string
	Compress     bool
	MMap         bool
}

// loadDefaults parses the two command mains under root. Every flag the
// stack reads must be there: a renamed or removed flag fails the run rather
// than leaving its field at zero, which for several knobs (cache-entries,
// mdi-ttl, index-min-rows) selects a different deployment.
func loadDefaults(root string) (defaults, error) {
	hq, err := flagDefaults(filepath.Join(root, "cmd", "hyperq", "main.go"))
	if err != nil {
		return defaults{}, err
	}
	pg, err := flagDefaults(filepath.Join(root, "cmd", "pgserver", "main.go"))
	if err != nil {
		return defaults{}, err
	}
	return defaultsFrom(hq, pg)
}

// defaultsFrom picks the stack's knobs out of the flag defaults of
// cmd/hyperq (hq) and cmd/pgserver (pg).
func defaultsFrom(hq, pg map[string]any) (defaults, error) {
	var d defaults
	var mdiTTL, drainTimeout, queryTimeout int64
	var errs []error
	get(&errs, hq, "pool-size", &d.PoolSize)
	get(&errs, hq, "cache-entries", &d.CacheEntries)
	get(&errs, hq, "mdi-ttl", &mdiTTL)
	get(&errs, hq, "result-path", &d.ResultPath)
	get(&errs, hq, "drain-timeout", &drainTimeout)
	get(&errs, hq, "query-timeout", &queryTimeout)
	get(&errs, pg, "exec", &d.Exec)
	get(&errs, pg, "parallel", &d.Parallel)
	get(&errs, pg, "index-min-rows", &d.IndexMinRows)
	get(&errs, pg, "wal-sync", &d.WALSync)
	get(&errs, pg, "compress", &d.Compress)
	get(&errs, pg, "mmap", &d.MMap)
	d.MDITTL, d.DrainTimeout, d.QueryTimeout = time.Duration(mdiTTL), time.Duration(drainTimeout), time.Duration(queryTimeout)
	if len(errs) > 0 {
		return defaults{}, errs[0]
	}
	return d, nil
}

// get copies flag name's default from m into dst, recording an error when
// the flag is missing or its default is not of dst's type.
func get[T any](errs *[]error, m map[string]any, name string, dst *T) {
	v, ok := m[name]
	if !ok {
		*errs = append(*errs, fmt.Errorf("flag -%s: not found in the command sources", name))
		return
	}
	x, ok := v.(T)
	if !ok {
		*errs = append(*errs, fmt.Errorf("flag -%s: default %v is not a %T", name, v, *dst))
		return
	}
	*dst = x
}

// flagDefaults returns the default value of every flag.<Kind>("name",
// default, usage) call in a Go source file, evaluated as a constant.
func flagDefaults(path string) (map[string]any, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("reading flag defaults: %w", err)
	}
	out := map[string]any{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		v, err := constValue(call.Args[1])
		if err != nil {
			// kept as the value: only a flag the stack reads fails the run
			v = err
		}
		out[name] = v
		return true
	})
	return out, nil
}

// knownConsts are the named constants the command flag defaults use.
var knownConsts = map[string]int64{
	"time.Nanosecond":          int64(time.Nanosecond),
	"time.Microsecond":         int64(time.Microsecond),
	"time.Millisecond":         int64(time.Millisecond),
	"time.Second":              int64(time.Second),
	"time.Minute":              int64(time.Minute),
	"time.Hour":                int64(time.Hour),
	"pgdb.DefaultIndexMinRows": int64(pgdb.DefaultIndexMinRows),
}

// constValue evaluates the small constant expressions flag defaults are
// written in: literals, true/false, known named constants, unary minus and
// products (5*time.Minute).
func constValue(e ast.Expr) (any, error) {
	switch x := e.(type) {
	case *ast.BasicLit:
		switch x.Kind {
		case token.STRING:
			return strconv.Unquote(x.Value)
		case token.INT:
			return strconv.ParseInt(x.Value, 0, 64)
		}
	case *ast.Ident:
		switch x.Name {
		case "true":
			return true, nil
		case "false":
			return false, nil
		}
	case *ast.SelectorExpr:
		if pkg, ok := x.X.(*ast.Ident); ok {
			if v, ok := knownConsts[pkg.Name+"."+x.Sel.Name]; ok {
				return v, nil
			}
		}
	case *ast.ParenExpr:
		return constValue(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.SUB {
			v, err := constValue(x.X)
			if n, ok := v.(int64); ok && err == nil {
				return -n, nil
			}
		}
	case *ast.BinaryExpr:
		if x.Op == token.MUL {
			a, errA := constValue(x.X)
			b, errB := constValue(x.Y)
			na, okA := a.(int64)
			nb, okB := b.(int64)
			if errA == nil && errB == nil && okA && okB {
				return na * nb, nil
			}
		}
	}
	return nil, fmt.Errorf("cannot evaluate default %T", e)
}
