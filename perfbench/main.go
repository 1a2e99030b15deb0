// Command perfbench is the repository benchmark. It runs one named
// workload in process through the simulator's public entry points, times
// those calls from outside, checks every output, and prints one JSON
// result line whose metric names and units come from BENCHMARK.json.
//
// Build and run it through the wrapper, from the checkout root:
//
//	python3 perfbench/run.py --workload sim-latency-bound --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with every optional instrument off. With --trace 1 the run alternates
// untraced and traced passes: traced passes turn on the program's own
// instrumentation (perfscope phase timing and census, stall attribution,
// campaign span tracing, pool and cache metric registries), and the
// result carries the per-layer metrics plus the tracing overhead.
//
// README.md in this directory lists every metric, the layer it belongs
// to, and the end-to-end metric and workload it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Before measuring, a run times setupBatches batches of setupBatchSize
// set-ups each. setup_s is the median over batches of a batch's set-up
// time divided by setupBatchSize: one set-up takes well under a
// millisecond, too short to time steadily on its own.
const (
	setupBatches   = 20
	setupBatchSize = 50
)

// runner is one workload, set up and ready to measure.
type runner interface {
	// pass runs the workload once and returns the time each op spent
	// in calls into the program, in a fixed op order. Check failures are
	// counted in the op log; an error aborts the run (a harness fault,
	// not a program fault).
	pass(traced bool) ([]time.Duration, error)
	// work returns the simulated warp instructions and the simulation
	// jobs one pass resolves. It is called after every pass has run.
	work() (winst, jobs float64)
	// endToEnd adds the deterministic end-to-end metrics.
	endToEnd(m values) error
	// perLayer adds the per-layer metrics gathered by the passes.
	perLayer(m values) error
	// close releases the runner's resources.
	close()
}

// workload names one workload and builds its runner.
type workload struct {
	name  string
	setup func(e *env) (runner, error)
}

// benchWorkloads lists the benchmark's workloads in BENCHMARK.json order.
var benchWorkloads = []workload{
	{"sim-latency-bound", func(e *env) (runner, error) { return newSimRunner(e, latencyBound) }},
	{"sim-issue-bound", func(e *env) (runner, error) { return newSimRunner(e, issueBound) }},
	{"sim-observed", func(e *env) (runner, error) { return newSimRunner(e, observed) }},
	{"campaign-incremental", newCampaignRunner},
}

// env is what a runner needs from the harness.
type env struct {
	seed  uint64
	trace bool
	log   *opLog
	// buildNS accumulates the time set-ups spend generating and
	// scaling kernels (workloads.build_ms).
	buildNS time.Duration
}

// values holds metric values by name.
type values map[string]float64

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchDefs is the part of BENCHMARK.json the binary reads.
type benchDefs struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// The benchmark definition and the work directory, relative to the
// checkout root the benchmark runs from.
const (
	benchJSON = "BENCHMARK.json"
	workDir   = ".bench_build"
)

// errUsage marks a bad command line (exit 2).
var errUsage = errors.New("usage")

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for sim.Config.Seed and campaign.Spec.Seed")
	fs.Float64Var(&o.seconds, "seconds", 25, "measurement time")
	fs.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from traced passes")
	if err := fs.Parse(args); err != nil {
		return o, fmt.Errorf("%w: %v", errUsage, err)
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("%w: unexpected argument %q", errUsage, fs.Arg(0))
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("%w: --trace must be 0 or 1", errUsage)
	case o.seconds <= 0:
		return o, fmt.Errorf("%w: --seconds must be positive", errUsage)
	}
	o.trace = trace == 1
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func loadDefs(path string) (benchDefs, error) {
	var d benchDefs
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

func run(o options) (result, error) {
	defs, err := loadDefs(benchJSON)
	if err != nil {
		return result{}, err
	}
	var wl *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == o.workload {
			wl = &benchWorkloads[i]
		}
	}
	if wl == nil {
		var names []string
		for _, w := range benchWorkloads {
			names = append(names, w.name)
		}
		return result{}, fmt.Errorf("%w: unknown workload %q (valid: %s)", errUsage, o.workload, strings.Join(names, ", "))
	}
	build, err := buildID()
	if err != nil {
		return result{}, err
	}
	digestPath := filepath.Join(workDir, "digests", build, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	log, err := newOpLog(digestPath)
	if err != nil {
		return result{}, err
	}
	e := &env{seed: o.seed, trace: o.trace, log: log}

	// Time set-up in batches before measuring; the runner set up last
	// is the one measured.
	var setups, builds []float64
	for i := 0; i < setupBatches; i++ {
		s, b, err := setupBatch(wl, e)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups, builds = append(setups, s), append(builds, b)
	}
	r, err := wl.setup(e)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer r.close()

	// Measure: whole passes until the next one would overrun the time,
	// alternating untraced and traced passes in a traced run.
	var plain, traced [][]time.Duration
	budget := time.Duration(o.seconds * float64(time.Second))
	var elapsed time.Duration
	for i := 0; ; i++ {
		tr := o.trace && i%2 == 1
		ops, err := r.pass(tr)
		if err != nil {
			return result{}, fmt.Errorf("pass %d: %w", i, err)
		}
		if tr {
			traced = append(traced, ops)
		} else {
			plain = append(plain, ops)
		}
		var d time.Duration
		for _, op := range ops {
			d += op
		}
		elapsed += d
		fmt.Fprintf(os.Stderr, "perfbench: pass %d traced=%v %.3fs\n", i, tr, d.Seconds())
		if elapsed+d > budget && (!o.trace || len(traced) > 0) {
			break
		}
	}

	m := values{}
	if o.trace {
		if err := r.perLayer(m); err != nil {
			return result{}, err
		}
		m["workloads.build_ms"] = median(builds)
		m["trace.overhead_frac"] = passSeconds(traced)/passSeconds(plain) - 1
		m["error_rate"] = float64(log.failed) / float64(max(log.attempted, 1))
	} else {
		if err := r.endToEnd(m); err != nil {
			return result{}, err
		}
		winst, jobs := r.work()
		wall := passSeconds(plain)
		m["setup_s"] = median(setups)
		m["wall_s"] = wall
		m["sim_winst_per_s"] = winst / wall
		m["campaign_jobs_per_s"] = jobs / wall
		m["peak_rss_mb"] = peakRSSMB()
	}
	if err := log.save(); err != nil {
		return result{}, err
	}
	log.summary(os.Stderr, o.workload, len(plain), len(traced))

	defsUsed := defs.EndToEnd
	if o.trace {
		defsUsed = defs.PerLayer
	}
	out, err := render(m, defsUsed)
	if err != nil {
		return result{}, err
	}
	return result{
		Correct:   log.failed == 0,
		Attempted: log.attempted,
		Failed:    log.failed,
		Metrics:   out,
	}, nil
}

// setupBatch sets the workload up setupBatchSize times, closing each
// runner outside the timed calls, after a garbage collection so every
// batch starts from a comparable heap. It returns the mean set-up time
// in seconds and the mean kernel build time in milliseconds.
func setupBatch(wl *workload, e *env) (setupS, buildMS float64, err error) {
	runtime.GC()
	e.buildNS = 0
	var d time.Duration
	for i := 0; i < setupBatchSize; i++ {
		t0 := time.Now()
		r, err := wl.setup(e)
		d += time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		r.close()
	}
	return d.Seconds() / setupBatchSize, float64(e.buildNS) / 1e6 / setupBatchSize, nil
}

// passSeconds estimates one pass's time as the sum over ops of each
// op's median time across the passes, which shrugs off a pass that a
// burst of host noise slowed down.
func passSeconds(passes [][]time.Duration) float64 {
	var total float64
	for i := range passes[0] {
		var ds []float64
		for _, p := range passes {
			ds = append(ds, p[i].Seconds())
		}
		total += median(ds)
	}
	return total
}

// render pairs every defined metric with its value. A metric the
// workload does not exercise reads 0; a value with no definition, or a
// non-finite value, is a benchmark bug.
func render(m values, defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := m[d.Name]
		if v != v || v > 1e300 || v < -1e300 {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
		delete(m, d.Name)
	}
	if len(m) > 0 {
		var extra []string
		for k := range m {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics missing from BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	return out, nil
}

// buildID fingerprints the running binary, so stored digests bind one
// build of the benchmark and the program: a rebuild after a change
// starts fresh references instead of failing against stale ones.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := fnv.New64a()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
