package main

import (
	"fmt"

	"pdcquery/internal/client"
	"pdcquery/internal/core"
)

// runScan is vpic-scan: one client, 4 servers over in-process pipes, the
// serial engine and the default 1 GiB region cache, which holds the
// whole dataset. Each round counts the 15 Fig. 3 and 6 Fig. 4 queries
// under one strategy; rounds rotate through PDC-F, PDC-H, PDC-HI and
// PDC-SH. Replies are counts, so nearly all wall time is evaluation.
func runScan(cfg config, ds *dataset) (*report, error) {
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	dep, st, err := repeatSetup(cfg.setups, func() (deployed, setupTimes, error) {
		opts := core.Options{Servers: 4}
		if tr != nil {
			opts.WrapConn = tr.wrap
		}
		return startVPIC(ds, opts)
	}, func(x deployed) { _ = x.d.Close() })
	if err != nil {
		return nil, err
	}
	d := dep.d
	defer d.Close()

	queries, truths, err := fig34Oracle(d, ds, dep.ids)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.hookStore(d.Store())
	}
	cli := d.Client()
	countAll := func(log *opLog, si int) error {
		for i, q := range queries {
			var res *client.QueryResult
			rec, ok := log.call(opCount, si, func() (err error) {
				res, err = cli.RunCount(q)
				return err
			})
			if !ok {
				continue
			}
			rec.fill(res.Info)
			if err := log.verify(checkCount(fmt.Sprintf("%s query %d", strategyName(si), i), res.Info.NHits, truths[i])); err != nil {
				return err
			}
		}
		return nil
	}
	// Warm-up: every strategy once, so caches hold what each one reads.
	for si, s := range strategies {
		d.SetStrategy(s)
		if err := countAll(&opLog{}, si); err != nil {
			return nil, err
		}
	}
	sys := &system{
		loop: loopSpec{
			clients: 1,
			cycle:   len(strategies),
			between: func(p int, _ float64) error {
				d.SetStrategy(strategies[p%len(strategies)])
				return nil
			},
			pass: func(p, _ int, log *opLog) error { return countAll(log, p%len(strategies)) },
		},
		servers: d.Servers,
		check: func(b, a fleetCounters) error {
			hits, misses := a.cacheHits-b.cacheHits, a.cacheMisses-b.cacheMisses
			if r := ratio(float64(hits), float64(hits+misses)); r < 0.99 {
				return fmt.Errorf("vpic-scan: region-cache hit ratio %.4f after warm-up, want >= 0.99", r)
			}
			return nil
		},
	}
	rep, err := measure(cfg, tr, st, sys, func() (*system, error) { return sys, nil }, func() (*replays, error) {
		return replayLayers(tr, d, ds, dep.ids, queries, truths, textStatements(cfg.seed))
	})
	if err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, strategyTable(rep.ph)...)
	return rep, nil
}

// deployed is a started core deployment and its objects.
type deployed struct {
	d   *core.Deployment
	ids vpicIDs
}

// startVPIC imports the dataset with the Energy sorted replica and its
// x/y/z companions, and starts the deployment.
func startVPIC(ds *dataset, opts core.Options) (deployed, setupTimes, error) {
	var out deployed
	d, ids, st, err := importVPIC(ds, opts)
	if err != nil {
		return out, st, err
	}
	t0 := wallNow()
	if err := d.Start(); err != nil {
		return out, st, err
	}
	st.total = st.importS + st.replica + secondsBetween(t0, wallNow())
	out.d, out.ids = d, ids
	return out, st, nil
}

// strategyTable renders the end-to-end wall and modeled time per query
// of each strategy in the untraced pass: the calibration of the whole
// query path, beside the exec-only one.
func strategyTable(ph *phase) []string {
	out := []string{"per strategy, end to end (untraced pass, 4 servers):",
		fmt.Sprintf("  %-8s %8s %14s %16s %14s", "strategy", "ops", "wall ns/query", "modeled ns/query", "wall/modeled")}
	var wall, modeled [4]float64
	for si := range strategies {
		var n float64
		var wsum, msum float64
		for _, r := range ph.ops {
			if r.strat == si && !r.failed {
				n++
				wsum += float64(r.wall)
				msum += float64(r.modeled)
			}
		}
		wall[si], modeled[si] = ratio(wsum, n), ratio(msum, n)
		out = append(out, fmt.Sprintf("  %-8s %8.0f %14.0f %16.0f %14.4f", strategyName(si), n, wall[si], modeled[si], ratio(wall[si], modeled[si])))
	}
	out = append(out, "  rank by wall:  "+rankString(wall[:]), "  rank by model: "+rankString(modeled[:]))
	return out
}
