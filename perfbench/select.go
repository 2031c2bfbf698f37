package main

import (
	"fmt"
	"slices"
	"sync"

	"pdcquery/internal/client"
	"pdcquery/internal/core"
	"pdcquery/internal/histogram"
	"pdcquery/internal/query"
	"pdcquery/internal/workload"
)

// selectStrategies are the strategies vpic-select alternates between,
// one per pass.
var selectStrategies = []int{1, 3} // PDC-H, PDC-SH (indexes into strategies)

// selectWindows is how many wide Energy windows vpic-select draws.
const selectWindows = 25

// selectRounds is how many times each client goroutine walks the query
// list in one pass: passes are long enough that the barrier between
// them (strategy switch, eviction check) is a small share of the time.
const selectRounds = 2

// runSelect is vpic-select: 2 servers behind TCP loopback with 2 region
// workers each, and a per-server region cache of 4 regions against a
// share of 32, so every pass misses and evicts. Client goroutines share
// one client; each op is a Run whose selection travels, a GetData of the
// hit Energy values, or a GetHistogram. Scan work is light; wire encode
// and decode, syscalls, selection merge, value extraction and the LRU
// carry the time.
func runSelect(cfg config, ds *dataset) (*report, error) {
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	dep, st, err := repeatSetup(cfg.setups, func() (deployed, setupTimes, error) {
		opts := core.Options{Servers: 2, TCP: true, Workers: 2, CacheBytes: 4 * ds.regionBytes}
		if tr != nil {
			opts.WrapConn = tr.wrap
		}
		return startVPIC(ds, opts)
	}, func(x deployed) { _ = x.d.Close() })
	if err != nil {
		return nil, err
	}
	d, ids := dep.d, dep.ids
	defer d.Close()

	queries := workload.MultiObjectQueries(ids[0], ids[1], ids[2], ids[3])
	queries = append(queries, workload.Fig6Query(ids[0], ids[1], ids[2], ids[3]))
	// Wide Energy windows on a fixed grid: the thermal tail reaches
	// their lower bounds in nearly every region, so histograms prune
	// little and every pass reads most regions. Their hit counts spread
	// evenly, so no latency percentile sits in a gap between clusters.
	for i := 0; i < selectWindows; i++ {
		lo := 1.0 + 0.02*float64(i)
		width := 0.5 + 0.02*float64(i*9%selectWindows)
		queries = append(queries, &query.Query{Root: query.Between(ids.energy(), lo, lo+width, false, false)})
	}
	truths := make([]*truth, len(queries))
	for i, q := range queries {
		if truths[i], err = oracle(d, ds, q, 0); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		tr.hookStore(d.Store())
	}
	// The global histograms are verified by a full recount the first
	// time each is fetched (in the warm-up); later replies must equal it.
	hists := make([]*histogram.Histogram, len(ids))
	cli := d.Client()
	stash := newStashGuard(cfg.clients)
	// one walks the query list rounds times for client goroutine g,
	// starting at its own offset so the goroutines do not move in step.
	one := func(si, g, rounds int, log *opLog) error {
		off := g * len(queries) / cfg.clients
		// A fatal wrong answer must not leave the other goroutine
		// waiting on this one's pending result.
		defer stash.fetched(g)
		for j := 0; j < rounds*len(queries); j++ {
			i := (off + j) % len(queries)
			q := queries[i]
			op := fmt.Sprintf("%s query %d", strategyName(si), i)
			var res *client.QueryResult
			stash.beforeRun(g)
			rec, ok := log.call(opSelect, si, func() (err error) {
				res, err = cli.Run(q)
				return err
			})
			if !ok {
				stash.fetched(g)
			} else {
				rec.fill(res.Info)
				if err := log.verify(checkSel(op, res.Sel, truths[i])); err != nil {
					return err
				}
				var data []byte
				var info *client.Info
				rec, ok := log.call(opGetData, si, func() (err error) {
					data, info, err = res.GetData(ids.energy())
					return err
				})
				stash.fetched(g)
				if ok {
					rec.fill(*info)
					if err := log.verify(checkData(op+" get-data", data, truths[i])); err != nil {
						return err
					}
				}
			}
			k := i % len(ids)
			var h *histogram.Histogram
			var info *client.Info
			rec, ok = log.call(opHist, -1, func() (err error) {
				h, info, err = cli.GetHistogram(ids[k])
				return err
			})
			if !ok {
				continue
			}
			rec.fill(*info)
			var bad error
			if hists[k] == nil {
				bad = checkHist(fmt.Sprintf("histogram of %s", objNames[k]), h, ds.vals[k])
				hists[k] = h
			} else if !sameHist(h, hists[k]) {
				bad = &wrongAnswer{fmt.Sprintf("histogram of %s", objNames[k]), "differs from the verified reply"}
			}
			if err := log.verify(bad); err != nil {
				return err
			}
		}
		return nil
	}
	for _, si := range selectStrategies {
		d.SetStrategy(strategies[si])
		if err := one(si, 0, 1, &opLog{}); err != nil {
			return nil, err
		}
	}
	var passEvictions int64 = -1
	evictions := func() int64 {
		var n int64
		for _, s := range d.Servers() {
			n += s.Cache().Stats().Evictions
		}
		return n
	}
	// lastPassEvicted is the per-pass self-check: the pass that just
	// ended must have evicted.
	lastPassEvicted := func() error {
		now := evictions()
		if passEvictions >= 0 && now == passEvictions {
			return fmt.Errorf("vpic-select: a pass ran without region-cache evictions; the cache holds the data")
		}
		passEvictions = now
		return nil
	}
	sys := &system{
		loop: loopSpec{
			clients: cfg.clients,
			cycle:   len(selectStrategies),
			between: func(p int, _ float64) error {
				if p == 0 {
					passEvictions = -1
				}
				d.SetStrategy(strategies[selectStrategies[p%len(selectStrategies)]])
				return lastPassEvicted()
			},
			pass: func(p, g int, log *opLog) error {
				return one(selectStrategies[p%len(selectStrategies)], g, selectRounds, log)
			},
		},
		servers: d.Servers,
		check: func(b, a fleetCounters) error {
			if a.cacheEvictions == b.cacheEvictions {
				return fmt.Errorf("vpic-select: no region-cache evictions")
			}
			return lastPassEvicted()
		},
	}
	rep, err := measure(cfg, tr, st, sys, func() (*system, error) { return sys, nil }, func() (*replays, error) {
		qs, truths, err := fig34Oracle(d, ds, ids)
		if err != nil {
			return nil, err
		}
		return replayLayers(tr, d, ds, ids, qs, truths, textStatements(cfg.seed))
	})
	if err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("runs held back to keep a pending result stashed: %d", stash.waits))
	return rep, nil
}

// stashRoom is how many Runs of other client goroutines may be issued
// after a goroutine issues its Run and before its GetData is done. A
// server keeps the 16 most recent results of each connection for
// GetData; the goroutines share one client, so one connection per
// server. One server may finish the Run long after another has stashed
// it, so the count starts when the Run is issued, and the room leaves
// out the goroutine's own entry and one Run already in flight.
const stashRoom = 14

// stashGuard holds a Run back while another client goroutine's result
// would be evicted from the servers' stash before that goroutine's
// GetData. It waits only when a goroutine stalls between its Run and its
// GetData; otherwise the get-data op would fail with "no stashed result".
type stashGuard struct {
	mu   sync.Mutex
	cond *sync.Cond
	// pending counts, per goroutine, the other goroutines' Runs issued
	// since its own; -1 when it has no Run or GetData under way.
	pending []int
	waits   int
}

func newStashGuard(clients int) *stashGuard {
	s := &stashGuard{pending: make([]int, clients)}
	s.cond = sync.NewCond(&s.mu)
	for g := range s.pending {
		s.pending[g] = -1
	}
	return s
}

// beforeRun waits until goroutine g's Run evicts no pending result,
// then marks g's own result as pending.
func (s *stashGuard) beforeRun(g int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	full := func() bool {
		for h, n := range s.pending {
			if h != g && n >= stashRoom {
				return true
			}
		}
		return false
	}
	for full() {
		s.waits++
		s.cond.Wait()
	}
	for h, n := range s.pending {
		if h != g && n >= 0 {
			s.pending[h]++
		}
	}
	s.pending[g] = 0
}

// fetched marks goroutine g's GetData as done, or its Run as failed.
func (s *stashGuard) fetched(g int) {
	s.mu.Lock()
	s.pending[g] = -1
	s.mu.Unlock()
	s.cond.Broadcast()
}

// sameHist reports whether two histograms are identical.
func sameHist(a, b *histogram.Histogram) bool {
	return a.Width == b.Width && a.Start == b.Start && a.Min == b.Min && a.Max == b.Max &&
		a.Total == b.Total && a.NegInf == b.NegInf && a.PosInf == b.PosInf && slices.Equal(a.Counts, b.Counts)
}
