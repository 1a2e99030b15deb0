package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"pilotrf"
	"pilotrf/internal/telemetry"
	"pilotrf/internal/workloads"
)

// The campaign-incremental grid. Run (a) is the base spec; run (b) adds
// two protection schemes and one workload, so its goldens hit and its
// new cells miss; run (c) repeats (b) and must hit everywhere.
var (
	campaignBase    = []string{"BFS", "hotspot", "sgemm"}
	campaignExtra   = "nw"
	campaignDesigns = []string{"mrf-ntv", "part", "part-adaptive"}
	campaignProtA   = []string{"none", "parity"}
	campaignProtB   = []string{"none", "parity", "secded", "paper"}
)

const (
	campaignTrials = 2
	campaignScale  = 0.05
	campaignSMs    = 2
	// campaignSimSeed is the sim.Config.Seed campaign goldens and trials
	// run with (sim.DefaultConfig's); Spec.Seed seeds only the faults.
	campaignSimSeed = 1
)

var runNames = [3]string{"a", "b", "c"}

// campaignTally accumulates the traced passes' spans and counters.
type campaignTally struct {
	passes           int
	wallS            float64
	taskS            float64
	queueMS, hitMS   []float64
	goldenS, trialsS float64
	counters         map[string]float64
	cacheBytes       float64
	reportB          pilotrf.CampaignReport
	haveReport       bool
}

type campaignRunner struct {
	e       *env
	specs   [3]pilotrf.CampaignSpec
	jobs    int // campaign jobs per pass (Spec.NumJobs over the three runs)
	workers int
	pool    *pilotrf.WorkerPool
	// tpool and reg serve traced passes: the same pool shape with a
	// metrics registry attached.
	tpool *pilotrf.WorkerPool
	reg   *telemetry.Registry
	// expectedMisses and simJobs follow from the grid (see plan).
	expectedMisses [3]uint64
	simJobs        map[string]float64
	refs           map[string]pilotrf.Result
	root           string
	passes         int
	tally          campaignTally
}

// newCampaignRunner validates the three specs (which generates their
// kernels), starts the pool, and creates the run's cache root.
func newCampaignRunner(e *env) (runner, error) {
	base := pilotrf.CampaignSpec{
		Benchmarks: campaignBase,
		Designs:    campaignDesigns,
		Protect:    campaignProtA,
		Trials:     campaignTrials,
		Scale:      campaignScale,
		SMs:        campaignSMs,
	}
	full := base
	full.Benchmarks = append(append([]string(nil), campaignBase...), campaignExtra)
	full.Protect = campaignProtB
	r := &campaignRunner{e: e, specs: [3]pilotrf.CampaignSpec{base, full, full},
		workers: runtime.NumCPU(), refs: map[string]pilotrf.Result{}}
	t0 := time.Now()
	for _, s := range r.specs {
		n, err := s.NumJobs()
		if err != nil {
			return nil, err
		}
		r.jobs += n
	}
	e.buildNS += time.Since(t0)

	var err error
	if r.pool, err = pilotrf.NewWorkerPool(pilotrf.PoolConfig{Workers: r.workers}); err != nil {
		return nil, err
	}
	if e.trace {
		r.reg = telemetry.NewRegistry()
		if r.tpool, err = pilotrf.NewWorkerPool(pilotrf.PoolConfig{Workers: r.workers, Metrics: r.reg}); err != nil {
			r.close()
			return nil, err
		}
	}
	r.root = filepath.Join(workDir, "cache", strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(r.root); err != nil {
		r.close()
		return nil, err
	}
	if err := os.MkdirAll(r.root, 0o755); err != nil {
		r.close()
		return nil, err
	}
	r.expectedMisses, r.simJobs = r.plan()
	return r, nil
}

// plan derives, from the grid alone, the cache misses each run must see
// on a fresh cache and how many jobs per workload each pass simulates.
func (r *campaignRunner) plan() ([3]uint64, map[string]float64) {
	var misses [3]uint64
	jobs := map[string]float64{}
	seenGolden, seenCell := map[string]bool{}, map[string]bool{}
	d := float64(len(campaignDesigns))
	for i, s := range r.specs {
		for _, w := range s.Benchmarks {
			if !seenGolden[w] {
				seenGolden[w] = true
				misses[i] += uint64(len(campaignDesigns))
				jobs[w] += d
			}
			for _, p := range s.Protect {
				if !seenCell[w+"/"+p] {
					seenCell[w+"/"+p] = true
					misses[i] += uint64(len(campaignDesigns))
					jobs[w] += d * campaignTrials
				}
			}
		}
	}
	return misses, jobs
}

func (r *campaignRunner) close() {
	if r.pool != nil {
		r.pool.Close()
	}
	if r.tpool != nil {
		r.tpool.Close()
	}
	if r.root != "" {
		os.RemoveAll(r.root)
	}
}

// passSeed is the campaign seed of a run's k-th fault stream set. Each
// pass draws a fresh set, so a run averages the fault-dependent trial
// work (aborts, watchdog runaways) over several sets instead of timing
// one set repeatedly; the sequence depends only on the benchmark seed.
func passSeed(seed uint64, k int) uint64 {
	return seed*1_000_003 + uint64(k) + 1
}

// pass runs (a), (b) and (c) on one fresh on-disk cache. A traced pass
// reuses the fault streams of the untraced pass before it, so the two
// are held to the same report digests.
func (r *campaignRunner) pass(traced bool) ([]time.Duration, error) {
	k := r.passes
	if r.e.trace {
		k /= 2
	}
	r.passes++
	specs := r.specs
	for i := range specs {
		specs[i].Seed = passSeed(r.e.seed, k)
	}
	dir := filepath.Join(r.root, strconv.Itoa(r.passes))
	opt := pilotrf.CampaignOptions{Pool: r.pool}
	var rec *pilotrf.SpanRecorder
	var before map[string]float64
	if traced {
		opt.Pool = r.tpool
		rec = pilotrf.EnableSpanTracing(&opt, true)
		before = r.reg.Map()
	}

	var reports [3]pilotrf.CampaignReport
	var encoded [3][]byte
	var errs [3]error
	var hits, misses [3]uint64
	var ds []time.Duration
	t0 := time.Now()
	cache, err := pilotrf.OpenResultCache(dir)
	if err != nil {
		return nil, err
	}
	if traced {
		cache.Metrics(r.reg)
	}
	opt.Cache = cache
	for i, spec := range specs {
		st0 := cache.Stats()
		reports[i], errs[i] = pilotrf.RunFaultCampaign(context.Background(), spec, opt)
		st1 := cache.Stats()
		hits[i], misses[i] = st1.Hits-st0.Hits, st1.Misses-st0.Misses
		ds = append(ds, time.Since(t0))
		t0 = time.Now()
	}

	for i := range reports {
		if errs[i] == nil {
			encoded[i], errs[i] = json.Marshal(reports[i])
		}
	}
	for i, name := range runNames {
		checks := []error{errs[i]}
		if misses[i] != r.expectedMisses[i] {
			checks = append(checks, fmt.Errorf("%d cache misses, want %d", misses[i], r.expectedMisses[i]))
		}
		if i == 2 && string(encoded[2]) != string(encoded[1]) {
			checks = append(checks, fmt.Errorf("rerun report differs from run (b)"))
		}
		if i == 1 && hits[i] == 0 {
			checks = append(checks, fmt.Errorf("no cache hits on the extended grid"))
		}
		digest := ""
		if errs[i] == nil {
			digest = bytesDigest(encoded[i])
		}
		r.e.log.op(fmt.Sprintf("campaign/%d/%s", k, name), digest, checks...)
	}
	if k == 0 && errs[1] == nil {
		r.tally.reportB, r.tally.haveReport = reports[1], true
	}
	if traced {
		r.foldTrace(rec.Spans(), before, ds[0]+ds[1]+ds[2], dir)
	}
	return ds, nil
}

// foldTrace adds one traced pass's spans, registry deltas and cache
// size to the tally.
func (r *campaignRunner) foldTrace(spans []pilotrf.Span, before map[string]float64, d time.Duration, dir string) {
	t := &r.tally
	t.passes++
	t.wallS += d.Seconds()
	if t.counters == nil {
		t.counters = map[string]float64{}
	}
	for k, v := range r.reg.Map() {
		t.counters[k] += v - before[k]
	}
	for _, sp := range spans {
		if sp.Wall == nil {
			continue
		}
		dur := float64(sp.Wall.EndUnixNS-sp.Wall.StartUnixNS) / 1e9
		switch sp.Name {
		case "pool.task":
			t.taskS += dur
			if q, err := strconv.ParseInt(sp.Wall.Attrs["queue_ns"], 10, 64); err == nil {
				t.queueMS = append(t.queueMS, float64(q)/1e6)
			}
		case "phase.golden":
			t.goldenS += dur
		case "phase.trials":
			t.trialsS += dur
		case "golden", "cell":
			if sp.Attrs["cache"] == "hit" {
				t.hitMS = append(t.hitMS, dur*1e3)
			}
		}
	}
	filepath.WalkDir(dir, func(_ string, de fs.DirEntry, err error) error {
		if err == nil && !de.IsDir() {
			if info, err := de.Info(); err == nil {
				t.cacheBytes += float64(info.Size())
			}
		}
		return nil
	})
}

// work counts each simulated job at its workload's fault-free warp
// instructions, taken from the mrf-stv reference run. A failed reference
// is a failed op and adds no instructions.
func (r *campaignRunner) work() (winst, jobs float64) {
	for b, n := range r.simJobs {
		res, err := r.reference(b, "mrf-stv")
		if err != nil {
			continue
		}
		var w uint64
		for _, k := range res.Stats.Kernels {
			w += k.WarpInstrs
		}
		winst += n * float64(w)
	}
	return winst, float64(r.jobs)
}

// reference runs one of the extended grid's workloads, untimed, with the
// configuration campaign goldens use.
func (r *campaignRunner) reference(bench, scheme string) (pilotrf.Result, error) {
	key := "ref/" + bench + "/" + scheme
	if res, ok := r.refs[key]; ok {
		return res, nil
	}
	sch, err := lookupScheme(scheme)
	if err != nil {
		return pilotrf.Result{}, err
	}
	s, err := newSimulator(sch, campaignSMs, campaignSimSeed)
	if err != nil {
		return pilotrf.Result{}, err
	}
	w, err := workloads.ByName(bench)
	if err != nil {
		return pilotrf.Result{}, err
	}
	res, err := s.RunKernels(bench, w.Scale(campaignScale).Kernels)
	if err != nil {
		r.e.log.op(key, "", fmt.Errorf("RunKernels: %w", err))
		return res, err
	}
	r.e.log.op(key, resultDigest(res))
	r.refs[key] = res
	return res, nil
}

func (r *campaignRunner) endToEnd(m values) error {
	var pa, stv []pilotrf.Result
	for _, b := range r.specs[1].Benchmarks {
		p, err := r.reference(b, "part-adaptive")
		if err != nil {
			return nil // counted as a failed op; the metrics stay unset
		}
		s, err := r.reference(b, "mrf-stv")
		if err != nil {
			return nil
		}
		pa, stv = append(pa, p), append(stv, s)
	}
	return designMetrics(m, pa, stv, campaignSMs)
}

func (r *campaignRunner) perLayer(m values) error {
	t := &r.tally
	passes := float64(t.passes)
	c := t.counters
	m["jobs.tasks"] = ratio(c["jobs_completed"], passes)
	m["jobs.steals"] = ratio(c["jobs_steals"], passes)
	m["jobs.queue_wait_ms_p50"] = quantile(t.queueMS, 0.5)
	m["jobs.queue_wait_ms_p90"] = quantile(t.queueMS, 0.9)
	m["jobs.worker_util"] = ratio(t.taskS, float64(r.workers)*t.wallS)
	m["jobs.cache_hits"] = ratio(c["cache_hits"], passes)
	m["jobs.cache_misses"] = ratio(c["cache_misses"], passes)
	m["jobs.cache_puts"] = ratio(c["cache_puts"], passes)
	m["jobs.cache_hit_ratio"] = ratio(c["cache_hits"], c["cache_hits"]+c["cache_misses"])
	m["jobs.cache_bytes"] = ratio(t.cacheBytes, passes)
	m["jobs.cache_hit_span_ms_p50"] = quantile(t.hitMS, 0.5)
	m["campaign.golden_phase_s"] = ratio(t.goldenS, passes)
	m["campaign.trials_phase_s"] = ratio(t.trialsS, passes)
	if t.haveReport {
		var o pilotrf.CampaignOutcomes
		var injected uint64
		for _, cell := range t.reportB.Cells {
			o.Masked += cell.Outcomes.Masked
			o.Corrected += cell.Outcomes.Corrected
			o.DetectedUnrecoverable += cell.Outcomes.DetectedUnrecoverable
			o.SDC += cell.Outcomes.SDC
			injected += cell.Injected
		}
		m["campaign.masked"] = float64(o.Masked)
		m["campaign.corrected"] = float64(o.Corrected)
		m["campaign.detected"] = float64(o.DetectedUnrecoverable)
		m["campaign.sdc"] = float64(o.SDC)
		m["fault.injected"] = float64(injected)
	}
	return nil
}
