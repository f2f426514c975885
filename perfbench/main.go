// Command perfbench is the repository's end-to-end benchmark. It stands up
// the paper's Figure 1 deployment in one process — pgdb behind pgdb.Serve,
// a pool of gateway PG v3 connections, shared metadata and translation
// caches, and xc sessions behind endpoint.Serve — drives it with QIPC
// clients, checks every answer, and prints the metrics as one JSON object on
// the last line of standard output.
//
//	perfbench --workload analytical|lookup|hybrid --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// an untraced and a traced deployment in turns, half the window each, and reports
// the per-layer metrics from the spans recorded at the seams between
// layers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupReps is how many times a run sets the deployment up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 3

// traceTurns is how many turns each deployment of a traced run takes.
const traceTurns = 4

// workloadDef is one traffic mix over its own deployment.
type workloadDef interface {
	// setup generates the data, loads and (for durable stores) checkpoints
	// and reopens it, starts the stack and warms it up, up to the first
	// measured request.
	setup(rc *runConfig, tr *tracer) (instance, error)
}

// instance is one set-up deployment with its connected clients.
type instance interface {
	// run drives the measured window until the deadline.
	run(deadline time.Time, w *window)
	// verify runs the checks that need no traffic, after the set-up is
	// timed and before the window.
	verify() error
	// finish stops the traffic, runs the after-run checks and closes the
	// deployment. Failed checks count as failed operations in w.
	finish(w *window) error
	// sizes describes the data set for the environment block.
	sizes() map[string]int
	// close releases everything without checks (discarded set-ups).
	close() error
	// parts exposes the deployment for counter snapshots.
	parts() *deployment
}

// runConfig is one invocation's settings.
type runConfig struct {
	name    string // workload
	root    string // repository checkout: the command sources are read here
	workdir string // scratch space for data directories, removed at exit
	seed    int64
	seconds int
	// measured is each deployment's measured time: the window, or half of
	// it for each deployment of a traced run
	measured time.Duration
	tiny     bool // test-sized data
	def      defaults
}

var workloads = map[string]workloadDef{
	"analytical": analytical{},
	"lookup":     lookup{},
	"hybrid":     hybrid{},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "analytical, lookup or hybrid")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	root := flag.String("root", ".", "repository checkout to read command defaults from")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload analytical|lookup|hybrid --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	def, err := loadDefaults(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	workdir := filepath.Join(*root, ".bench_build", "run", fmt.Sprintf("%s-%d", *name, os.Getpid()))
	rc := &runConfig{name: *name, root: *root, workdir: workdir, seed: *seed, seconds: *seconds, def: def}
	res, env, err := runWorkload(w, rc, *trace == 1)
	os.RemoveAll(workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env["workload"] = *name
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(envLine))
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// runWorkload performs one invocation: one untraced deployment, or an
// untraced and a traced deployment measured in turns.
func runWorkload(w workloadDef, rc *runConfig, traced bool) (*result, map[string]any, error) {
	if err := os.MkdirAll(rc.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	d := time.Duration(rc.seconds) * time.Second
	rc.measured = d
	if traced {
		rc.measured = d / 2
	}
	if !traced {
		var setups []float64
		var inst instance
		for i := 0; i < setupReps; i++ {
			t0 := time.Now()
			in, err := w.setup(rc, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			if i < setupReps-1 {
				if err := in.close(); err != nil {
					return nil, nil, err
				}
				continue
			}
			inst = in
		}
		if err := inst.verify(); err != nil {
			inst.close()
			return nil, nil, fmt.Errorf("verify: %w", err)
		}
		win := &window{}
		win.measure(d, inst.run)
		if err := inst.finish(win); err != nil {
			return nil, nil, err
		}
		res := endToEnd(win, median(setups))
		return res, envBlock(rc, inst, win, setups), nil
	}

	// The untraced and the traced deployment run side by side, taking turns
	// in short turns, so a drift in the host's speed touches both alike.
	// Each deployment idles while the other is measured.
	plain, err := w.setup(rc, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	defer plain.close()
	tr := newTracer()
	inst, err := w.setup(rc, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("traced setup: %w", err)
	}
	defer inst.close()
	for _, in := range []instance{plain, inst} {
		if err := in.verify(); err != nil {
			return nil, nil, fmt.Errorf("verify: %w", err)
		}
	}
	pw, tw := &window{}, &window{}
	snap := takeCounters(inst)
	turn := d / (2 * traceTurns)
	for i := 0; i < traceTurns; i++ {
		pw.measure(turn, plain.run)
		tr.on.Store(true)
		tw.measure(turn, inst.run)
		tr.on.Store(false)
	}
	snap.end(inst)
	if err := plain.finish(pw); err != nil {
		return nil, nil, err
	}
	if err := inst.finish(tw); err != nil {
		return nil, nil, err
	}
	if err := tr.waitServers(10 * time.Second); err != nil {
		return nil, nil, err
	}
	spans := tr.take()
	res := perLayer(spans, tr, snap, pw, tw)
	env := envBlock(rc, inst, tw, nil)
	path := filepath.Join(rc.root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl.gz", rc.name, rc.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, nil, err
	}
	env["spans_file"] = path
	return res, env, nil
}

// endToEnd turns an untraced window into the end-to-end metrics. The
// rate, the latency percentiles and CPU per request are medians over the
// window's slices.
func endToEnd(w *window, setup float64) *result {
	res := &result{Attempted: w.attempted, Failed: w.failed, Metrics: map[string]metric{}}
	res.Correct = w.failed == 0 && w.attempted > 0
	var qps, cpu, p50, p90 []float64
	for _, sl := range w.slices {
		qps = append(qps, sl.qps)
		if sl.n > 0 {
			cpu = append(cpu, ms(sl.cpuPerQ))
			p50 = append(p50, ms(sl.p50))
			p90 = append(p90, ms(sl.p90))
		}
	}
	res.Metrics["setup_s"] = metric{setup, "s"}
	res.Metrics["queries_per_s"] = metric{median(qps), "1/s"}
	res.Metrics["latency_p50_ms"] = metric{median(p50), "ms"}
	res.Metrics["latency_p90_ms"] = metric{median(p90), "ms"}
	res.Metrics["cpu_ms_per_query"] = metric{median(cpu), "ms"}
	res.Metrics["peak_heap_mb"] = metric{float64(w.peakHeap) / (1 << 20), "MiB"}
	return res
}

// envBlock is the environment recorded with every result.
func envBlock(rc *runConfig, inst instance, w *window, setups []float64) map[string]any {
	env := map[string]any{
		"go":          runtime.Version(),
		"goos":        runtime.GOOS,
		"goarch":      runtime.GOARCH,
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"commit":      commitOf(rc.root),
		"seed":        rc.seed,
		"seconds":     rc.seconds,
		"data":        inst.sizes(),
		"completed":   w.completed(),
		"attempted":   w.attempted,
		"failed":      w.failed,
		"first_error": w.firstError,
		"defaults":    rc.def,
	}
	var perSlice []int
	for _, sl := range w.slices {
		perSlice = append(perSlice, sl.n)
	}
	env["completed_per_slice"] = perSlice
	// the whole-window figures the slice medians stand for
	env["window_queries_per_s"] = float64(w.completed()) / w.elapsed.Seconds()
	env["window_latency_p99_ms"] = ms(quantile(w.lat, 0.99))
	if len(w.writeLat) > 0 {
		env["write_samples"] = len(w.writeLat)
	}
	if setups != nil {
		env["setup_samples_s"] = setups
	}
	return env
}

// commitOf reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
