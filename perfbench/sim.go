package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"
	"unsafe"

	"pilotrf"
	"pilotrf/internal/flightrec"
	"pilotrf/internal/perfscope"
	"pilotrf/internal/regfile"
	"pilotrf/internal/telemetry"
	"pilotrf/internal/workloads"
)

// simKind selects one of the three simulator workloads.
type simKind int

const (
	latencyBound simKind = iota
	issueBound
	observed
)

// simSMs is the simulated SM count of every sim workload. The paper
// reports per-SM behaviour, and one SM at scale s runs the same per-SM
// CTA waves as the two-SM default at scale 2s in half the host time.
const simSMs = 1

// simSpec is a sim workload's kernel set.
type simSpec struct {
	benches []string
	schemes []string // nil selects every registered scheme
	scale   float64
}

var simSpecs = map[simKind]simSpec{
	// The kernels with the most skippable cycles and the lowest issue
	// rate: event sweep, idle cycles and adaptive low-power mode dominate.
	latencyBound: {
		benches: []string{"nw", "CP", "LIB", "sgemm", "stencil", "BFS"},
		schemes: []string{"mrf-stv", "part-adaptive"},
		scale:   0.5,
	},
	// Kernels issuing on ~97% of cycles under the GTO schemes (~89%
	// under the rfc schemes' two-level scheduler), across every
	// registered scheme so the rfc and greener paths run too.
	issueBound: {
		benches: []string{"hotspot", "kmeans", "lavaMD", "mri-q"},
		scale:   0.25,
	},
	// The only workload with observers attached.
	observed: {
		benches: []string{"BFS", "hotspot"},
		schemes: []string{"part-adaptive"},
		scale:   0.15,
	},
}

// simCase is one (kernel set, scheme) op.
type simCase struct {
	key     string
	bench   string
	scheme  pilotrf.DesignScheme
	kernels []pilotrf.Kernel
	sim     *pilotrf.Simulator // plain simulator reused by untraced passes
}

// simTally accumulates what the passes of one mode measured.
type simTally struct {
	runMS          []float64
	mallocs, bytes uint64

	// Model counts over every op.
	issued, issueSlots, collStalls uint64
	bankQueue, bankCycles          uint64
	paParts                        [4]uint64 // part-adaptive partition split
	rfcHits, rfcReads              uint64

	// Perfscope and stall attribution (traced passes).
	census   pilotrf.PerfCensus
	phaseNS  [perfscope.NumPhases]int64
	stalls   pilotrf.StallBreakdown
	smCycles uint64

	// Observers (sim-observed).
	passes                  int
	events, ndjsonBytes     uint64
	eventHeapBytes          float64
	writeNS, replayNS       int64
	consNS                  int64
	epochs                  int
	observedSMCycles        uint64
	passWinst, passSimCalls uint64
}

type simRunner struct {
	e     *env
	kind  simKind
	spec  simSpec
	cases []simCase
	// kernels holds each bench's scaled kernels.
	kernels map[string][]pilotrf.Kernel
	// last holds each op's latest result, for the deterministic metrics.
	last          map[string]pilotrf.Result
	plain, traced simTally
}

func newSimulator(sch pilotrf.DesignScheme, sms int, seed uint64) (*pilotrf.Simulator, error) {
	s, err := pilotrf.NewSchemeSimulator(sch, sch.DefaultKnobs(), pilotrf.Options{
		SMs:       sms,
		Profiling: pilotrf.ProfileHybrid,
	})
	if err != nil {
		return nil, err
	}
	s.Config().Seed = seed
	return s, nil
}

func lookupScheme(name string) (pilotrf.DesignScheme, error) {
	s, ok := pilotrf.LookupScheme(name)
	if !ok {
		return nil, fmt.Errorf("unknown scheme %q", name)
	}
	return s, nil
}

// newSimRunner generates and scales the kernels and builds one
// simulator per op: the set-up every sim workload pays before its
// first op.
func newSimRunner(e *env, kind simKind) (runner, error) {
	spec := simSpecs[kind]
	schemes := pilotrf.AllSchemes()
	if spec.schemes != nil {
		schemes = schemes[:0]
		for _, name := range spec.schemes {
			s, err := lookupScheme(name)
			if err != nil {
				return nil, err
			}
			schemes = append(schemes, s)
		}
	}
	r := &simRunner{e: e, kind: kind, spec: spec,
		kernels: map[string][]pilotrf.Kernel{}, last: map[string]pilotrf.Result{}}
	for _, b := range spec.benches {
		t0 := time.Now()
		w, err := workloads.ByName(b)
		if err != nil {
			return nil, err
		}
		ks := w.Scale(spec.scale).Kernels
		e.buildNS += time.Since(t0)
		r.kernels[b] = ks
		for _, sch := range schemes {
			s, err := newSimulator(sch, simSMs, e.seed)
			if err != nil {
				return nil, err
			}
			r.cases = append(r.cases, simCase{
				key: b + "/" + sch.Name(), bench: b, scheme: sch, kernels: ks, sim: s,
			})
		}
	}
	return r, nil
}

func (r *simRunner) close() {}

func (r *simRunner) pass(traced bool) ([]time.Duration, error) {
	t := &r.plain
	if traced {
		t = &r.traced
	}
	t.passes++
	t.passWinst, t.passSimCalls = 0, 0
	ds := make([]time.Duration, 0, len(r.cases))
	for i := range r.cases {
		c := &r.cases[i]
		var d time.Duration
		var err error
		if r.kind == observed {
			d, err = r.observedOp(c, traced, t)
		} else {
			d, err = r.simOp(c, traced, t)
		}
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// simOp runs one op with observers off: on the setup's simulator when
// untraced, on a fresh one with perfscope wall-clock timing and stall
// attribution when traced.
func (r *simRunner) simOp(c *simCase, traced bool, t *simTally) (time.Duration, error) {
	s := c.sim
	var prof *pilotrf.PerfProfiler
	if traced {
		var err error
		if s, err = newSimulator(c.scheme, simSMs, r.e.seed); err != nil {
			return 0, err
		}
		prof = s.EnablePerfscope(true)
		s.EnableStallAttribution()
	}
	res, d, err := r.timedRun(s, c, t)
	checks := []error{err}
	if traced && err == nil {
		checks = append(checks, checkStalls(res))
		t.census.Add(prof.Census())
		ns := prof.PhaseNS()
		for i := range ns {
			t.phaseNS[i] += ns[i]
		}
	}
	r.finishOp(c, res, err, t, checks...)
	return d, nil
}

// observedOp records one run with the energy ledger, the metrics
// recorder (which implies stall attribution) and the flight recorder
// attached, writes the recording as NDJSON, reads it back, and replays
// it in a second run under the replay checker. The op's time covers
// both runs, the write, and the read.
func (r *simRunner) observedOp(c *simCase, traced bool, t *simTally) (time.Duration, error) {
	s, err := newSimulator(c.scheme, simSMs, r.e.seed)
	if err != nil {
		return 0, err
	}
	led := s.EnableEnergyLedger(0)
	rec := s.EnableMetrics(0)
	fr := s.EnableFlightRecorder(0)
	var prof *pilotrf.PerfProfiler
	if traced {
		prof = s.EnablePerfscope(true)
	}
	res, runD, err := r.timedRun(s, c, t)
	if err != nil {
		r.finishOp(c, res, err, t)
		return runD, nil
	}

	t0 := time.Now()
	consErr := led.CheckConservation(res.Stats.PartAccesses(), res.Stats.TotalCycles())
	t.consNS += int64(time.Since(t0))

	log := fr.Log()
	var buf bytes.Buffer
	t0 = time.Now()
	writeErr := log.WriteNDJSON(&buf)
	writeD := time.Since(t0)
	ndjson := buf.Len()
	t0 = time.Now()
	back, readErr := flightrec.ReadNDJSON(&buf)
	readD := time.Since(t0)

	var replayD time.Duration
	var replayErr error
	if readErr == nil {
		replayD, replayErr = r.replay(c, back, t)
	}

	t.events += uint64(len(log.Events))
	t.ndjsonBytes += uint64(ndjson)
	t.eventHeapBytes += eventHeapBytes(log)
	t.writeNS += int64(writeD)
	t.replayNS += int64(replayD)
	t.epochs += rec.Series().Len()
	for _, k := range res.Stats.Kernels {
		t.observedSMCycles += k.SMCycles
	}
	if traced {
		t.census.Add(prof.Census())
		ns := prof.PhaseNS()
		for i := range ns {
			t.phaseNS[i] += ns[i]
		}
	}
	r.finishOp(c, res, nil, t, consErr, checkStalls(res), writeErr, readErr, replayErr)
	return runD + writeD + readD + replayD, nil
}

// replay reruns an op under the replay checker; the checker must match
// event for event and the stats must match the recorded run's.
func (r *simRunner) replay(c *simCase, log *pilotrf.Recording, t *simTally) (time.Duration, error) {
	s, err := newSimulator(c.scheme, simSMs, r.e.seed)
	if err != nil {
		return 0, err
	}
	chk := s.EnableReplayCheck(log)
	t0 := time.Now()
	res, err := s.RunKernels(c.bench, c.kernels)
	d := time.Since(t0)
	t.passSimCalls++
	for _, k := range res.Stats.Kernels {
		t.passWinst += k.WarpInstrs
	}
	if err != nil {
		return d, fmt.Errorf("replay run: %w", err)
	}
	if err := chk.Err(); err != nil {
		return d, fmt.Errorf("replay check: %w", err)
	}
	if got, want := resultDigest(res), resultDigest(r.last[c.key]); got != want {
		return d, fmt.Errorf("replay stats digest %s, recorded run %s", got, want)
	}
	return d, nil
}

// timedRun times one RunKernels call and counts its host allocations.
func (r *simRunner) timedRun(s *pilotrf.Simulator, c *simCase, t *simTally) (pilotrf.Result, time.Duration, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := s.RunKernels(c.bench, c.kernels)
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	t.runMS = append(t.runMS, float64(d)/1e6)
	t.mallocs += m1.Mallocs - m0.Mallocs
	t.bytes += m1.TotalAlloc - m0.TotalAlloc
	t.passSimCalls++
	for _, k := range res.Stats.Kernels {
		t.passWinst += k.WarpInstrs
	}
	if err == nil {
		r.last[c.key] = res
	}
	return res, d, err
}

// finishOp logs the op and folds its model counts into the tally.
func (r *simRunner) finishOp(c *simCase, res pilotrf.Result, runErr error, t *simTally, checks ...error) {
	digest := ""
	if runErr == nil {
		digest = resultDigest(res)
	} else {
		runErr = fmt.Errorf("RunKernels: %w", runErr)
	}
	r.e.log.op(c.key, digest, append([]error{runErr}, checks...)...)
	if runErr != nil {
		return
	}
	banks := uint64(c.sim.Config().RF.Banks)
	for _, k := range res.Stats.Kernels {
		t.issued += k.WarpInstrs
		t.issueSlots += k.IssueSlots
		t.collStalls += k.CollectorStalls
		t.bankQueue += k.BankQueueSum
		t.bankCycles += uint64(k.Cycles) * banks
		t.stalls.AddBreakdown(k.StallBreakdown)
		t.smCycles += k.SMCycles
	}
	if c.scheme.Name() == "part-adaptive" {
		parts := res.Stats.PartAccesses()
		for i := range parts {
			t.paParts[i] += parts[i]
		}
	}
	rfc := res.Stats.RFCTotals()
	t.rfcHits += rfc.ReadHits
	t.rfcReads += rfc.ReadHits + rfc.ReadMiss
}

// checkStalls requires each kernel's stall breakdown to account for
// exactly its zero-issue SM-cycles.
func checkStalls(res pilotrf.Result) error {
	for i := range res.Stats.Kernels {
		k := &res.Stats.Kernels[i]
		if got, want := k.StallBreakdown.Total(), k.SMCycles-k.BusyCycles; got != want || k.SMCycles == 0 {
			return fmt.Errorf("kernel %d: stall breakdown sums to %d over %d SM-cycles, want SMCycles-BusyCycles = %d",
				i, got, k.SMCycles, want)
		}
	}
	return nil
}

// eventHeapBytes is the heap the recording holds: the event slice's
// backing array plus each event's detail string.
func eventHeapBytes(log *pilotrf.Recording) float64 {
	b := cap(log.Events) * int(unsafe.Sizeof(flightrec.Event{}))
	for i := range log.Events {
		b += len(log.Events[i].Detail)
	}
	return float64(b)
}

func (r *simRunner) work() (winst, jobs float64) {
	return float64(r.plain.passWinst), float64(r.plain.passSimCalls)
}

// reference returns the latest result of (bench, scheme), running it
// once, untimed, when no pass ran that plain op.
func (r *simRunner) reference(bench, scheme string) (pilotrf.Result, error) {
	key := bench + "/" + scheme
	if res, ok := r.last[key]; ok {
		return res, nil
	}
	sch, err := lookupScheme(scheme)
	if err != nil {
		return pilotrf.Result{}, err
	}
	s, err := newSimulator(sch, simSMs, r.e.seed)
	if err != nil {
		return pilotrf.Result{}, err
	}
	res, err := s.RunKernels(bench, r.kernels[bench])
	if err != nil {
		err = fmt.Errorf("RunKernels: %w", err)
		r.e.log.op("ref/"+key, "", err)
		return res, err
	}
	r.e.log.op("ref/"+key, resultDigest(res))
	return res, nil
}

func (r *simRunner) endToEnd(m values) error {
	var pa, stv []pilotrf.Result
	for _, b := range r.spec.benches {
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
	return designMetrics(m, pa, stv, simSMs)
}

// designMetrics sets ipc, rf_dyn_energy_saving_pct and
// perf_overhead_pct from aligned part-adaptive and mrf-stv results.
func designMetrics(m values, pa, stv []pilotrf.Result, sms int) error {
	paSch, err := lookupScheme("part-adaptive")
	if err != nil {
		return err
	}
	stvSch, err := lookupScheme("mrf-stv")
	if err != nil {
		return err
	}
	var winst uint64
	var cycles int64
	var ePA, eSTV, logSum float64
	for i := range pa {
		for _, k := range pa[i].Stats.Kernels {
			winst += k.WarpInstrs
		}
		cycles += pa[i].Cycles()
		ePA += paSch.Energy(paSch.DefaultKnobs(), pa[i].Stats.DesignRun()).DynamicPJ
		eSTV += stvSch.Energy(stvSch.DefaultKnobs(), stv[i].Stats.DesignRun()).DynamicPJ
		logSum += math.Log(float64(pa[i].Cycles()) / float64(stv[i].Cycles()))
	}
	m["ipc"] = ratio(float64(winst), float64(cycles)) / float64(sms)
	m["rf_dyn_energy_saving_pct"] = 100 * (1 - ratio(ePA, eSTV))
	m["perf_overhead_pct"] = 100 * (math.Exp(logSum/float64(len(pa))) - 1)
	return nil
}

func (r *simRunner) perLayer(m values) error {
	p, tr := &r.plain, &r.traced
	sm := float64(tr.census.SMCycles)
	for ph, name := range map[perfscope.Phase]string{
		perfscope.PhaseEvents:    "events",
		perfscope.PhaseIssue:     "issue",
		perfscope.PhaseCollect:   "collect",
		perfscope.PhaseBanks:     "banks",
		perfscope.PhaseAdaptive:  "adaptive",
		perfscope.PhaseTelemetry: "telemetry",
		perfscope.PhaseEnergy:    "energy",
		perfscope.PhaseRecord:    "record",
	} {
		m["sim."+name+"_ns_per_smcycle"] = ratio(float64(tr.phaseNS[ph]), sm)
	}
	m["sim.skippable_frac"] = tr.census.SkippableFrac()
	m["sim.skip_run_mean"] = ratio(float64(tr.census.Skippable), float64(tr.census.SkipRuns))
	m["sim.busy_frac"] = ratio(float64(tr.census.Busy), sm)
	m["sim.allocs_per_winst"] = ratio(float64(p.mallocs), float64(p.issued))
	m["sim.bytes_per_winst"] = ratio(float64(p.bytes), float64(p.issued))
	m["sim.run_ms_p50"] = quantile(p.runMS, 0.5)
	m["sim.run_ms_p90"] = quantile(p.runMS, 0.9)
	m["sim.issue_util"] = ratio(float64(p.issued), float64(p.issueSlots))
	m["sim.collector_stalls_per_kinst"] = ratio(float64(p.collStalls), float64(p.issued)/1000)
	m["sim.bank_queue_avg"] = ratio(float64(p.bankQueue), float64(p.bankCycles))
	for _, cause := range telemetry.StallCauses() {
		name := strings.ReplaceAll(cause.String(), "-", "_")
		m["sim.stall."+name+"_frac"] = ratio(float64(tr.stalls[cause]), float64(tr.smCycles))
	}
	frf := p.paParts[regfile.PartFRFHigh] + p.paParts[regfile.PartFRFLow]
	all := p.paParts[0] + p.paParts[1] + p.paParts[2] + p.paParts[3]
	m["regfile.frf_share"] = ratio(float64(frf), float64(all))
	m["regfile.frf_low_share"] = ratio(float64(p.paParts[regfile.PartFRFLow]), float64(frf))
	m["rfc.hit_ratio"] = ratio(float64(p.rfcHits), float64(p.rfcReads))
	if r.kind == observed {
		passes := float64(p.passes)
		m["flightrec.events"] = ratio(float64(p.events), passes)
		m["flightrec.events_per_smcycle"] = ratio(float64(p.events), float64(p.observedSMCycles))
		m["flightrec.heap_bytes_per_event"] = ratio(p.eventHeapBytes, float64(p.events))
		m["flightrec.ndjson_bytes_per_event"] = ratio(float64(p.ndjsonBytes), float64(p.events))
		m["flightrec.write_ns_per_event"] = ratio(float64(p.writeNS), float64(p.events))
		m["flightrec.replay_ms"] = ratio(float64(p.replayNS)/1e6, passes)
		m["energy.conservation_check_ms"] = ratio(float64(p.consNS)/1e6, passes)
		m["telemetry.epochs"] = ratio(float64(p.epochs), passes)
	}
	return nil
}
