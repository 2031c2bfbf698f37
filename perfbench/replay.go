package main

import (
	"fmt"
	"sort"
	"strings"

	"pdcquery/internal/bitindex"
	"pdcquery/internal/core"
	"pdcquery/internal/dtype"
	"pdcquery/internal/exec"
	"pdcquery/internal/histogram"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/query"
	"pdcquery/internal/sortstore"
	"pdcquery/internal/vclock"
)

// replays are per-layer measurements taken by calling one layer's public
// functions directly, on the deployment's own data and metadata, after
// the traced pass.
type replays struct {
	// Per strategy (strategies order), per evaluated query.
	evalMs, evalAllocs, evalKB, modeledNs [4]float64
	scanGBs                               float64
	histMs, bitMs                         float64 // per region
	parseUs, planUs                       float64 // per statement
}

// execReplayPasses is how many timed passes over the queries each
// strategy gets after its warm-up pass.
const execReplayPasses = 3

// replayLayers runs every replay. queries and truths are the paper's
// Fig. 3/Fig. 4 queries and their oracle answers; statements are the
// cluster-text statement texts.
func replayLayers(t *tracer, d *core.Deployment, ds *dataset, ids vpicIDs, queries []*query.Query, truths []*truth, statements []string) (*replays, error) {
	rp := &replays{}
	ac := newAllocCounter()
	meta := d.Meta()
	reps := d.Replicas()
	var assign exec.Assignment
	anchor, _ := meta.Get(ids.energy())
	for r := range anchor.Regions {
		assign.Orig = append(assign.Orig, r)
	}
	if rep := reps[ids.energy()]; rep != nil {
		for r := range rep.Regions {
			assign.Sorted = append(assign.Sorted, r)
		}
	}
	for si, st := range strategies {
		eng := &exec.Engine{
			Store:  d.Store(),
			Acct:   vclock.NewAccount(),
			Lookup: meta.Get,
			Global: func(id object.ID) *histogram.Histogram {
				if o, ok := meta.Get(id); ok {
					return o.Global
				}
				return nil
			},
			Replica:  func(id object.ID) *sortstore.Replica { return reps[id] },
			Strategy: st,
			Cache:    exec.NewCache(1 << 30),
		}
		for i, q := range queries { // warm the engine's cache
			res, err := eng.Evaluate(q, assign, false)
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", st, err)
			}
			if err := checkCount("replay "+st.String(), res.Sel.NHits, truths[i]); err != nil {
				return nil, err
			}
		}
		trace, root := t.startTrace("replay.exec." + strategyName(si))
		var wall, scanned int64
		var allocs, bytes uint64
		m0 := eng.Acct.Cost().Total()
		for pass := 0; pass < execReplayPasses; pass++ {
			for _, q := range queries {
				o0, b0 := ac.read()
				t0 := wallNow()
				res, err := eng.Evaluate(q, assign, false)
				t1 := wallNow()
				o1, b1 := ac.read()
				if err != nil {
					return nil, fmt.Errorf("replay %s: %w", st, err)
				}
				t.addSpan(span{Trace: trace, Parent: root, Name: "exec.Evaluate", Start: t0, End: t1})
				wall += t1 - t0
				allocs += o1 - o0
				bytes += b1 - b0
				scanned += res.Stats.ElementsScanned
			}
		}
		t.endSpan(root)
		n := float64(execReplayPasses * len(queries))
		rp.evalMs[si] = float64(wall) / 1e6 / n
		rp.evalAllocs[si] = float64(allocs) / n
		rp.evalKB[si] = float64(bytes) / 1e3 / n
		rp.modeledNs[si] = float64((eng.Acct.Cost().Total() - m0).Nanoseconds()) / n
		if st == exec.FullScan {
			rp.scanGBs = float64(scanned*4) / float64(wall)
		}
	}

	// Region summaries, rebuilt from the same region bytes the import
	// built them from.
	trace, root := t.startTrace("replay.region_summaries")
	perRegion := int(ds.regionBytes / 4)
	var histNs, bitNs int64
	var regions int
	for _, vals := range ds.vals {
		for lo := 0; lo < len(vals); lo += perRegion {
			raw := dtype.Bytes(vals[lo:min(lo+perRegion, len(vals))])
			t0 := wallNow()
			histogram.BuildBytes(dtype.Float32, raw, histogram.DefaultBins)
			t1 := wallNow()
			bitindex.Build(dtype.Float32, raw, bitindex.DefaultPrecision)
			t2 := wallNow()
			t.addSpan(span{Trace: trace, Parent: root, Name: "histogram.BuildBytes", Start: t0, End: t1})
			t.addSpan(span{Trace: trace, Parent: root, Name: "bitindex.Build", Start: t1, End: t2})
			histNs += t1 - t0
			bitNs += t2 - t1
			regions++
		}
	}
	t.endSpan(root)
	rp.histMs = float64(histNs) / 1e6 / float64(regions)
	rp.bitMs = float64(bitNs) / 1e6 / float64(regions)

	// Front end: parse and lower, then plan, every statement.
	resolve := func(name string) (object.ID, bool) {
		o, ok := meta.GetByName(name)
		if !ok {
			return 0, false
		}
		return o.ID, true
	}
	const textPasses = 5
	trace, root = t.startTrace("replay.frontend")
	var parseNs, planNs int64
	for pass := 0; pass < textPasses; pass++ {
		for _, text := range statements {
			t0 := wallNow()
			parsed, err := qlang.Parse(text)
			if err != nil {
				return nil, fmt.Errorf("replay parse %q: %w", text, err)
			}
			low, err := parsed.Lower(resolve)
			if err != nil {
				return nil, fmt.Errorf("replay lower %q: %w", text, err)
			}
			t1 := wallNow()
			if _, err := plan.Build(meta, low.Query, plan.ForceAuto); err != nil {
				return nil, fmt.Errorf("replay plan %q: %w", text, err)
			}
			t2 := wallNow()
			t.addSpan(span{Trace: trace, Parent: root, Name: "qlang.Parse+Lower", Start: t0, End: t1})
			t.addSpan(span{Trace: trace, Parent: root, Name: "plan.Build", Start: t1, End: t2})
			parseNs += t1 - t0
			planNs += t2 - t1
		}
	}
	t.endSpan(root)
	n := float64(textPasses * len(statements))
	rp.parseUs = float64(parseNs) / 1e3 / n
	rp.planUs = float64(planNs) / 1e3 / n
	return rp, nil
}

// rankAgreement is the share of strategy pairs that wall time and the
// model order the same way.
func (rp *replays) rankAgreement() float64 {
	var agree, pairs float64
	for i := range strategies {
		for j := i + 1; j < len(strategies); j++ {
			pairs++
			if (rp.evalMs[i] < rp.evalMs[j]) == (rp.modeledNs[i] < rp.modeledNs[j]) {
				agree++
			}
		}
	}
	return agree / pairs
}

func (rp *replays) addMetrics(m map[string]metric) {
	for si := range strategies {
		name := strategyName(si)
		m["exec.eval_ms."+name] = metric{rp.evalMs[si], "ms"}
		m["exec.eval_allocs."+name] = metric{rp.evalAllocs[si], "count"}
		m["exec.eval_kb."+name] = metric{rp.evalKB[si], "KB"}
		m["vclock.wall_over_modeled."+name] = metric{ratio(rp.evalMs[si]*1e6, rp.modeledNs[si]), "ratio"}
	}
	m["exec.scan_gb_s"] = metric{rp.scanGBs, "GB/s"}
	m["vclock.rank_agree"] = metric{rp.rankAgreement(), "frac"}
	m["histogram.build_ms_per_region"] = metric{rp.histMs, "ms"}
	m["bitindex.build_ms_per_region"] = metric{rp.bitMs, "ms"}
	m["qlang.parse_lower_us"] = metric{rp.parseUs, "us"}
	m["plan.build_us"] = metric{rp.planUs, "us"}
}

// calibration renders the wall-versus-model table of the exec replay and
// both strategy rankings side by side.
func (rp *replays) calibration() []string {
	out := []string{"calibration (exec replay: one engine over every region, warm cache, Fig. 3/4 queries):",
		fmt.Sprintf("  %-8s %16s %18s %14s", "strategy", "wall ns/query", "modeled ns/query", "wall/modeled")}
	for si := range strategies {
		out = append(out, fmt.Sprintf("  %-8s %16.0f %18.0f %14.4f", strategyName(si), rp.evalMs[si]*1e6, rp.modeledNs[si],
			ratio(rp.evalMs[si]*1e6, rp.modeledNs[si])))
	}
	out = append(out, "  rank by wall:  "+rankString(rp.evalMs[:]),
		"  rank by model: "+rankString(rp.modeledNs[:]),
		fmt.Sprintf("  pairs ranked alike: %.2f", rp.rankAgreement()))
	return out
}

// rankString lists the strategies fastest first.
func rankString(v []float64) string {
	idx := []int{0, 1, 2, 3}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	names := make([]string, len(idx))
	for k, i := range idx {
		names[k] = strategyName(i)
	}
	return strings.Join(names, " < ")
}
