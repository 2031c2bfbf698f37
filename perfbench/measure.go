package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"pdcquery/internal/client"
	"pdcquery/internal/exec"
	"pdcquery/internal/server"
	"pdcquery/internal/telemetry"
)

// strategies are the paper's four evaluation strategies, in the order
// vpic-scan rotates through them.
var strategies = []exec.Strategy{exec.FullScan, exec.Histogram, exec.HistogramIndex, exec.SortedHistogram}

type opKind int

const (
	opCount   opKind = iota // structured RunCount
	opSelect                // structured Run: the selection travels
	opGetData               // GetData on a hit object of a previous Run
	opHist                  // GetHistogram
	opText                  // declarative RunText
	numKinds
)

func (k opKind) String() string {
	return [...]string{"count", "select", "getdata", "hist", "text"}[k]
}

// opRecord is one client call of a measured pass.
type opRecord struct {
	kind    opKind
	strat   int // index into strategies, -1 when the op does not fix one
	start   int64
	wall    int64 // ns
	modeled int64 // Info.Elapsed, ns
	failed  bool
	hits    uint64
	stats   exec.Stats
	// allocs and allocBytes are the process's heap allocations during
	// the call; measured only in traced passes with one client goroutine.
	allocs, allocBytes uint64
}

// fill copies what the client reports about a completed call.
func (r *opRecord) fill(info client.Info) {
	r.modeled = info.Elapsed.Total().Nanoseconds()
	r.hits = info.NHits
	r.stats = info.Stats
}

// opLog collects one client goroutine's records.
type opLog struct {
	recs    []opRecord
	allocs  *allocCounter
	errs    map[opKind]string // first error message per op kind
	checked int               // replies compared with the oracle
}

// verify counts one oracle comparison and passes its verdict on.
func (l *opLog) verify(err error) error {
	l.checked++
	return err
}

// call times fn, one client call, and appends its record. The returned
// record stays valid until the next call; ok reports whether fn
// succeeded. A failed call is counted, not fatal.
func (l *opLog) call(kind opKind, strat int, fn func() error) (rec *opRecord, ok bool) {
	var o0, b0 uint64
	if l.allocs != nil {
		o0, b0 = l.allocs.read()
	}
	t0 := wallNow()
	err := fn()
	t1 := wallNow()
	r := opRecord{kind: kind, strat: strat, start: t0, wall: t1 - t0, failed: err != nil}
	if l.allocs != nil {
		o1, b1 := l.allocs.read()
		r.allocs, r.allocBytes = o1-o0, b1-b0
	}
	if err != nil {
		if l.errs == nil {
			l.errs = map[opKind]string{}
		}
		if _, seen := l.errs[kind]; !seen {
			l.errs[kind] = err.Error()
		}
	}
	l.recs = append(l.recs, r)
	return &l.recs[len(l.recs)-1], err == nil
}

// phase is one measured closed-loop pass over the workload.
type phase struct {
	ops []opRecord // every op, sorted by start
	// cycles holds the wall time at the start of the first pass and at
	// the end of every cycle.
	cycles  []int64
	errs    map[opKind]string
	checked int
	// allocs and allocBytes span the whole window (all goroutines).
	allocs, allocBytes uint64
}

// loopSpec drives a closed loop: between(p) runs alone before pass p
// (strategy switches, the mid-run join); pass(p, g, log) is client
// goroutine g's share of pass p. The loop stops after the first pass
// that closes a cycle once the measured time has passed.
type loopSpec struct {
	clients int
	cycle   int
	between func(p int, elapsed float64) error
	pass    func(p, g int, log *opLog) error
}

func runLoop(cfg config, spec loopSpec, perCallAllocs bool) (*phase, error) {
	logs := make([]*opLog, spec.clients)
	ac := newAllocCounter()
	for g := range logs {
		logs[g] = &opLog{recs: make([]opRecord, 0, 1<<14)}
		if perCallAllocs {
			logs[g].allocs = ac
		}
	}
	// Collect set-up garbage (earlier set-ups, oracle scratch) now, not
	// in the measured window.
	runtime.GC()
	o0, b0 := ac.read()
	t0 := wallNow()
	cycles := []int64{t0}
	for p := 0; ; p++ {
		if err := spec.between(p, secondsBetween(t0, wallNow())); err != nil {
			return nil, err
		}
		errs := make([]error, spec.clients)
		var wg sync.WaitGroup
		for g := 0; g < spec.clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				errs[g] = spec.pass(p, g, logs[g])
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		if (p+1)%spec.cycle == 0 {
			cycles = append(cycles, wallNow())
			if secondsBetween(t0, cycles[len(cycles)-1]) >= cfg.seconds {
				break
			}
		}
	}
	ph := &phase{cycles: cycles, errs: map[opKind]string{}}
	o1, b1 := ac.read()
	ph.allocs, ph.allocBytes = o1-o0, b1-b0
	for _, l := range logs {
		ph.ops = append(ph.ops, l.recs...)
		ph.checked += l.checked
		for k, e := range l.errs {
			if _, seen := ph.errs[k]; !seen {
				ph.errs[k] = e
			}
		}
	}
	sort.Slice(ph.ops, func(i, j int) bool { return ph.ops[i].start < ph.ops[j].start })
	if n := ph.completed(); n < cfg.minOps {
		return nil, fmt.Errorf("measured phase completed %d ops, fewer than the %d op_p99_ms needs", n, cfg.minOps)
	}
	return ph, nil
}

func (ph *phase) completed() int {
	n := 0
	for _, r := range ph.ops {
		if !r.failed {
			n++
		}
	}
	return n
}

func (ph *phase) failed() int { return len(ph.ops) - ph.completed() }

// walls returns the wall ms of the completed ops of one kind.
func (ph *phase) walls(kind opKind) []float64 {
	var out []float64
	for _, r := range ph.ops {
		if !r.failed && r.kind == kind {
			out = append(out, float64(r.wall)/1e6)
		}
	}
	return out
}

// seconds is the phase's measured wall time.
func (ph *phase) seconds() float64 { return secondsBetween(ph.cycles[0], ph.cycles[len(ph.cycles)-1]) }

// windowOps is the fewest completed ops a window needs, so that its p99
// has at least ten samples beyond it.
const windowOps = 1000

// maxWindows bounds how many windows a measured phase is cut into.
// Rates and percentiles are the median over the windows, so a
// disturbance shorter than half the phase does not move them.
const maxWindows = 10

// windowStats cuts the phase into windows of whole cycles (so every
// window holds the same mix of strategies and statements), each with at
// least windowOps completed ops and together at most about maxWindows,
// and returns the per-window completed-op rate, p50 and p99.
func (ph *phase) windowStats() (rates, p50s, p99s []float64) {
	type window struct {
		start, end int64
		walls      []float64
	}
	target := max(windowOps, ph.completed()/maxWindows)
	var ws []window
	cur := window{start: ph.cycles[0]}
	i := 0
	for _, end := range ph.cycles[1:] {
		for ; i < len(ph.ops) && ph.ops[i].start < end; i++ {
			if !ph.ops[i].failed {
				cur.walls = append(cur.walls, float64(ph.ops[i].wall)/1e6)
			}
		}
		cur.end = end
		if len(cur.walls) >= target {
			ws = append(ws, cur)
			cur = window{start: end}
		}
	}
	switch {
	case len(ws) == 0:
		ws = append(ws, cur)
	case len(cur.walls) > 0:
		// Too few ops left for a window of their own.
		last := &ws[len(ws)-1]
		last.end = cur.end
		last.walls = append(last.walls, cur.walls...)
	}
	for _, w := range ws {
		rates = append(rates, float64(len(w.walls))/secondsBetween(w.start, w.end))
		p50s = append(p50s, quantile(w.walls, 0.5))
		p99s = append(p99s, quantile(w.walls, 0.99))
	}
	return rates, p50s, p99s
}

// opP50 is the op_p50_ms of the phase.
func (ph *phase) opP50() float64 {
	_, p50s, _ := ph.windowStats()
	return median(p50s)
}

// endToEnd computes the end-to-end metrics of a phase.
func (ph *phase) endToEnd(setupS float64) map[string]metric {
	rates, p50s, p99s := ph.windowStats()
	var modeled float64
	var n int
	for _, r := range ph.ops {
		if !r.failed {
			modeled += float64(r.modeled) / 1e6
			n++
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return map[string]metric{
		"setup_s":              {setupS, "s"},
		"ops_per_s":            {median(rates), "1/s"},
		"op_p50_ms":            {median(p50s), "ms"},
		"op_p99_ms":            {median(p99s), "ms"},
		"modeled_ms_per_query": {modeled / float64(max(n, 1)), "ms"},
		"heap_mb":              {float64(ms.HeapAlloc) / 1e6, "MB"},
	}
}

// fleetCounters sums the servers' counters at one instant.
type fleetCounters struct {
	cacheHits, cacheMisses, cacheEvictions int64
	busy                                   int64
	planHits, planMisses                   uint64
	transferBytes, ingestBytes             int64
	queueHighWater                         float64
	reg                                    *telemetry.Registry // merged Metrics()
}

func countFleet(servers []*server.Server) fleetCounters {
	fc := fleetCounters{reg: telemetry.NewRegistry()}
	for _, s := range servers {
		m := s.Metrics()
		fc.reg.Merge(m)
		cs := s.Cache().Stats()
		fc.cacheHits += cs.Hits
		fc.cacheMisses += cs.Misses
		fc.cacheEvictions += cs.Evictions
		fc.busy += m.Counter("sched.rejected")
		h, miss := s.PlanCacheStats()
		fc.planHits += h
		fc.planMisses += miss
		fc.transferBytes += m.Counter("cluster.transfer.bytes")
		fc.ingestBytes += m.Counter("ingest.bytes")
		fc.queueHighWater = max(fc.queueHighWater, m.Gauge("sched.queue.hiwater"))
	}
	return fc
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerInputs is what a workload hands to layerMetrics besides the
// traced phase.
type layerInputs struct {
	setup          setupTimes
	before, after  fleetCounters
	serial         bool
	untracedP50    float64 // op_p50_ms of the untraced reference pass
	rebalanceMs    float64
	clusterImportB int64
}

// layerMetrics computes the per-layer metrics of a traced phase from
// the tracer, the fleet counters around the phase and the replays: the
// ones the result line emits, and the ones only the report prints.
func layerMetrics(ph *phase, t *tracer, rtts []rtt, in layerInputs, rp *replays) (emitted, printed map[string]metric) {
	ops := float64(len(ph.ops))
	var wall int64
	var allocs, allocBytes uint64
	var examined, hits, pruned, evaluated int64
	for _, r := range ph.ops {
		wall += r.wall
		allocs += r.allocs
		allocBytes += r.allocBytes
		if !r.failed {
			examined += r.stats.ElementsScanned + r.stats.Probes + r.stats.CandChecks
			hits += int64(r.hits)
			pruned += r.stats.RegionsPruned
			evaluated += r.stats.RegionsEvaluated
		}
	}
	if !in.serial {
		allocs, allocBytes = ph.allocs, ph.allocBytes
	}
	owner := attribute(ph.ops, rtts, in.serial)
	var waited int64
	for _, d := range transportWait(ph.ops, rtts, owner) {
		waited += d
	}
	t.opSpans(ph.ops, rtts, owner)
	rttMs := make([]float64, len(rtts))
	for i, r := range rtts {
		rttMs[i] = float64(r.recv-r.send) / 1e6
	}
	b, a := in.before, in.after
	m := map[string]metric{
		"core.import_s":               {in.setup.importS, "s"},
		"sortstore.replica_build_s":   {in.setup.replica, "s"},
		"client.allocs_per_op":        {float64(allocs) / ops, "count"},
		"client.kb_per_op":            {float64(allocBytes) / 1e3 / ops, "KB"},
		"client.self_ms_per_op":       {float64(wall-waited) / 1e6 / ops, "ms"},
		"transport.req_kb_per_op":     {float64(t.reqBytes.Load()) / 1e3 / ops, "KB"},
		"transport.resp_kb_per_op":    {float64(t.respBytes.Load()) / 1e3 / ops, "KB"},
		"transport.rtt_p50_ms":        {quantile(rttMs, 0.5), "ms"},
		"transport.send_us_per_frame": {ratio(float64(t.sendNs.Load())/1e3, float64(t.frames.Load())), "us"},
		"sched.busy_per_op":           {float64(a.busy-b.busy) / ops, "count"},
		"sched.queue_high_water":      {a.queueHighWater, "count"},
		"exec.elems_per_hit":          {ratio(float64(examined), float64(hits)), "count"},
		"exec.regions_pruned_frac":    {ratio(float64(pruned), float64(pruned+evaluated)), "frac"},
		"exec.cache.hit_ratio": {ratio(float64(a.cacheHits-b.cacheHits),
			float64(a.cacheHits-b.cacheHits+a.cacheMisses-b.cacheMisses)), "frac"},
		"exec.cache.evictions_per_op": {float64(a.cacheEvictions-b.cacheEvictions) / ops, "count"},
		"simio.read_ops_per_op":       {float64(t.reads.Load()) / ops, "count"},
		"simio.read_kb_per_op":        {float64(t.readBytes.Load()) / 1e3 / ops, "KB"},
		"plan.cache_hit_ratio": {ratio(float64(a.planHits-b.planHits),
			float64(a.planHits-b.planHits+a.planMisses-b.planMisses)), "frac"},
		"cluster.import_mb":      {float64(in.clusterImportB) / 1e6, "MB"},
		"cluster.transfer_mb":    {float64(a.transferBytes-b.transferBytes) / 1e6, "MB"},
		"cluster.retries_per_op": {float64(t.catViews.Load()) / ops, "count"},
		"trace.overhead_frac":    {ratio(ph.opP50(), in.untracedP50) - 1, "frac"},
	}
	// Only cluster-text imports into a cluster and rebalances, and the
	// cost model charges no virtual time to any server phase but
	// region_exec; times that read 0 on every run of a workload are
	// printed, not emitted.
	only := map[string]metric{
		"cluster.import_s":     {in.setup.cluster, "s"},
		"cluster.rebalance_ms": {in.rebalanceMs, "ms"},
	}
	for p := 0; p < telemetry.NumPhases; p++ {
		name := telemetry.PhaseName(p)
		var v float64
		if d := a.reg.Dist("phase." + name + "_vns"); d != nil {
			v = d.Quantile(0.5)
		}
		if p == telemetry.PhaseRegionExec {
			m["server.phase."+name+"_vns"] = metric{v, "ns"}
		} else {
			only["server.phase."+name+"_vns"] = metric{v, "ns"}
		}
	}
	rp.addMetrics(m)
	return m, only
}

// system is a deployed workload ready to measure.
type system struct {
	loop    loopSpec
	servers func() []*server.Server
	// check asserts the workload's defining property over one pass.
	check func(before, after fleetCounters) error
	// rebalanceMs and clusterImportB feed the cluster layer metrics.
	rebalanceMs    *float64
	clusterImportB int64
}

// measure runs the untraced pass on sys. A traced run then switches the
// tracer on and runs the traced pass on next() (sys itself for
// workloads a pass leaves unchanged), and replays the layers.
func measure(cfg config, tr *tracer, setup setupTimes, sys *system, next func() (*system, error), replay func() (*replays, error)) (*report, error) {
	pass := func(s *system, traced bool) (*phase, fleetCounters, fleetCounters, error) {
		before := countFleet(s.servers())
		ph, err := runLoop(cfg, s.loop, traced && s.loop.clients == 1)
		if err != nil {
			return nil, before, before, err
		}
		after := countFleet(s.servers())
		if err := s.check(before, after); err != nil {
			return nil, before, after, fmt.Errorf("workload self-check: %w", err)
		}
		return ph, before, after, nil
	}
	phA, _, _, err := pass(sys, false)
	if err != nil {
		return nil, err
	}
	rep := &report{ph: phA, attempted: len(phA.ops), failed: phA.failed(), e2e: phA.endToEnd(setup.total), tracer: tr,
		checked: phA.checked, completed: phA.completed()}
	if tr == nil {
		return rep, nil
	}
	sysB, err := next()
	if err != nil {
		return nil, err
	}
	tr.on.Store(true)
	phB, before, after, err := pass(sysB, true)
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	rtts := tr.takeRTTs()
	rp, err := replay()
	if err != nil {
		return nil, err
	}
	in := layerInputs{setup: setup, before: before, after: after, serial: sysB.loop.clients == 1,
		untracedP50: phA.opP50(), clusterImportB: sysB.clusterImportB}
	if sysB.rebalanceMs != nil {
		in.rebalanceMs = *sysB.rebalanceMs
	}
	rep.layers, rep.printedLayers = layerMetrics(phB, tr, rtts, in, rp)
	rep.attempted, rep.failed = len(phB.ops), phB.failed()
	rep.checked += phB.checked
	rep.completed += phB.completed()
	rep.notes = append(rep.notes, rp.calibration()...)
	return rep, nil
}

// report is what a workload run hands back to run.
type report struct {
	attempted, failed int
	e2e, layers       map[string]metric
	// printedLayers are per-layer values shown in the report only.
	printedLayers map[string]metric
	tracer        *tracer
	// ph is the untraced pass, whose per-op-type latencies and
	// failures are printed for people.
	ph    *phase
	notes []string
	// checked counts oracle comparisons in the measured passes and
	// completed the ops that succeeded there; each completed op is
	// checked at least once.
	checked, completed int
}

func (r *report) print(w io.Writer) {
	if ph := r.ph; ph != nil {
		fmt.Fprintf(w, "ops: %d attempted, %d completed, %d failed (failed_ops_frac %.4f) in %.2f s\n",
			len(ph.ops), ph.completed(), ph.failed(), ratio(float64(ph.failed()), float64(len(ph.ops))), ph.seconds())
		for k := opKind(0); k < numKinds; k++ {
			var n, failed int
			for _, op := range ph.ops {
				if op.kind == k {
					n++
					if op.failed {
						failed++
					}
				}
			}
			if n == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-8s %6d ops  %s_p50_ms %.4f  failed %d", k, n, k, quantile(ph.walls(k), 0.5), failed)
			if e, ok := ph.errs[k]; ok {
				fmt.Fprintf(w, "  first error: %s", e)
			}
			fmt.Fprintln(w)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	printMetrics(w, "end-to-end", r.e2e)
	printMetrics(w, "per-layer", r.layers)
	printMetrics(w, "per-layer, report only", r.printedLayers)
}

func printMetrics(w io.Writer, title string, m map[string]metric) {
	if len(m) == 0 {
		return
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s metrics:\n", title)
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// strategyName is the paper's label of strategies[i].
func strategyName(i int) string { return strategies[i].String() }
