package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"pdcquery/internal/client"
	"pdcquery/internal/cluster"
	"pdcquery/internal/core"
	"pdcquery/internal/exec"
	"pdcquery/internal/object"
	"pdcquery/internal/plan"
	"pdcquery/internal/qlang"
	"pdcquery/internal/server"
	"pdcquery/internal/telemetry"
)

// Statement mix of cluster-text. Pooled statements recur every few ops
// and stay in each member's plan cache; fresh statements recur once per
// schedule cycle, after more distinct statements than the cache holds
// (server.DefaultPlanCacheSize), so they miss it every time.
const freshStatements = 72

// pooled are the recurring statements. Their literals are fixed: they
// make up half the text ops, so drawing them would make the cost of a
// run depend on a handful of draws.
var pooled = []string{
	"select count where Energy between 2.9 and 3.4",
	"select ids where Energy > 2.9",
	"select count where Energy > 3",
	"select hist(Energy, 32) where Energy between 2.9 and 3.5",
	"select ids where Energy between 2.9 and 3.3",
	"select hist(Energy, 16) where Energy > 2.95",
	"select count where Energy > 3.2",
	"select ids where Energy > 3.1",
}

// clusterPlacementSeed seeds the cluster's placement ring. It is part of
// the deployment, not of the drawn input, so every run places regions
// the same way.
const clusterPlacementSeed = 42

// defectStatement is the declarative op of the known co-location defect.
// It keeps every region (the thermal bulk passes 1.2 everywhere), so it
// needs every x region on the member that evaluates the Energy region
// of the same index. The cluster evaluates region r of every object on
// the primary of the anchor object's region r, but places each (object,
// region) on its own, so on this placement the op fails with
// `simio: extent "obj/N/..." not found`; so do the Fig. 4 multi-object
// counts. These ops run once before and once after the measured phase
// and their outcome is printed; they stay out of the timed loop, which
// holds only ops that must succeed.
const defectStatement = "select hist(x, 16) where Energy > 1.2"

// numFig3 is how many of the Fig. 3/Fig. 4 queries are the single-object
// Fig. 3 ones; the rest are the Fig. 4 multi-object queries.
const numFig3 = 15

// textStatements returns cluster-text's distinct timed statement texts:
// the pooled ones, then fresh ones whose literals are drawn from the
// seed. Every statement reads Energy alone.
func textStatements(seed uint64) []string {
	rng := rand.New(rand.NewSource(int64(seed)))
	lit := func(lo, hi float64) string {
		return strconv.FormatFloat(lo+rng.Float64()*(hi-lo), 'f', 3, 64)
	}
	// Each shape draws its literals from narrow ranges: fresh statements
	// must differ in text to miss the plan cache, not in cost. Energy
	// thresholds from 2.9 up keep only the current-sheet regions on
	// every seed (the thermal tail leaves a seed-dependent handful of
	// stray particles between about 2.1 and 2.8), so text ops are cheap
	// and their parse, plan and routing costs show.
	shapes := []func() string{
		func() string {
			a := lit(2.9, 3.0)
			return "select count where Energy between " + a + " and " + lit(3.3, 3.4)
		},
		func() string { return "select ids where Energy > " + lit(2.9, 3.0) },
		func() string { return "select count where Energy > " + lit(2.9, 3.0) },
		func() string {
			return "select hist(Energy, 32) where Energy between " + lit(2.9, 3.0) + " and " + lit(3.4, 3.5)
		},
		func() string { return "select ids where Energy between " + lit(2.9, 3.0) + " and " + lit(3.2, 3.3) },
		func() string { return "select hist(Energy, 16) where Energy > " + lit(2.9, 3.0) },
	}
	seen := map[string]bool{}
	out := append([]string(nil), pooled...)
	for _, s := range out {
		seen[s] = true
	}
	for len(out) < len(pooled)+freshStatements {
		s := shapes[len(out)%len(shapes)]()
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// statement is one declarative op of cluster-text with its oracle.
type statement struct {
	text    string
	histCol int // objNames index of a hist projection's column, -1 otherwise
	kind    qlang.ProjKind
	truth   *truth
}

// clusterSys is one deployed cluster-text system: the source deployment
// (import source and oracle), the in-process cluster, and the session.
type clusterSys struct {
	src     *core.Deployment
	ids     vpicIDs
	l       *cluster.Local
	s       *cluster.Session
	ingestB int64
}

func (c clusterSys) close() {
	if c.s != nil {
		c.s.Close()
	}
	if c.l != nil {
		c.l.Close()
	}
	if c.src != nil {
		_ = c.src.Close()
	}
}

func (c clusterSys) servers() []*server.Server {
	var out []*server.Server
	for _, id := range c.l.MemberIDs() {
		if m := c.l.Member(id); m != nil {
			out = append(out, m.Server())
		}
	}
	return out
}

// buildCluster imports the source, starts a catalog plus 3 members over
// in-process pipes with R=2, and imports the source into the cluster
// through a session. The members evaluate structured counts with PDC-HI:
// under PDC-H a Fig. 3 count scans every region where the thermal tail
// left a stray particle in its window, and which regions those are (and
// so the slowest member's share) changes with the seed; bitmap probes
// cost in proportion to the hits, which the seed barely moves.
func buildCluster(cfg config, ds *dataset, tr *tracer) (clusterSys, setupTimes, error) {
	var c clusterSys
	src, ids, st, err := importVPIC(ds, core.Options{Servers: 1})
	if err != nil {
		return c, st, err
	}
	c.src, c.ids = src, ids
	t0 := wallNow()
	fail := func(err error) (clusterSys, setupTimes, error) {
		c.close()
		return clusterSys{}, st, err
	}
	if c.l, err = cluster.StartLocal(cluster.LocalOptions{Members: 3, R: 2, Seed: clusterPlacementSeed, Strategy: exec.HistogramIndex}); err != nil {
		return fail(err)
	}
	var network cluster.Network = c.l.Net()
	if tr != nil {
		network = tracedNet{Network: c.l.Net(), t: tr}
	}
	if c.s, err = cluster.DialSession(cluster.SessionOptions{Net: network, CatalogAddr: c.l.CatalogAddr()}); err != nil {
		return fail(err)
	}
	t1 := wallNow()
	if err := c.s.Import(src); err != nil {
		return fail(fmt.Errorf("cluster import: %w", err))
	}
	t2 := wallNow()
	st.cluster = secondsBetween(t1, t2)
	// The source's sorted replica serves only the exec replay, not the
	// cluster, so it is left out of the set-up time.
	st.total = st.importS + secondsBetween(t0, t2)
	c.ingestB = countFleet(c.servers()).ingestBytes
	if tr != nil {
		for _, id := range c.l.MemberIDs() {
			tr.hookStore(c.l.Member(id).Store())
		}
	}
	return c, st, nil
}

// runClusterText is cluster-text: one session against a catalog plus 3
// members, R=2. The schedule interleaves fresh statements, pooled
// statements and the structured Fig. 3/Fig. 4 counts; at mid-run one
// member joins and the cluster rebalances.
func runClusterText(cfg config, ds *dataset) (*report, error) {
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	cs, st, err := repeatSetup(cfg.setups, func() (clusterSys, setupTimes, error) {
		return buildCluster(cfg, ds, tr)
	}, clusterSys.close)
	if err != nil {
		return nil, err
	}
	current := cs
	defer func() { current.close() }()

	texts := textStatements(cfg.seed)
	defectIdx := len(texts)
	resolve := func(name string) (object.ID, bool) {
		o, ok := cs.src.Meta().GetByName(name)
		if !ok {
			return 0, false
		}
		return o.ID, true
	}
	stmts := make([]statement, len(texts)+1)
	for i, text := range append(texts, defectStatement) {
		parsed, err := qlang.Parse(text)
		if err != nil {
			return nil, err
		}
		low, err := parsed.Lower(resolve)
		if err != nil {
			return nil, err
		}
		stmts[i] = statement{text: text, histCol: -1, kind: low.Projection.Kind}
		if low.Projection.Kind == qlang.ProjHist {
			for k, id := range cs.ids {
				if id == low.HistObj {
					stmts[i].histCol = k
				}
			}
		}
		if stmts[i].truth, err = oracle(cs.src, ds, low.Query, stmts[i].histCol); err != nil {
			return nil, err
		}
	}
	structured, structTruth, err := fig34Oracle(cs.src, ds, cs.ids)
	if err != nil {
		return nil, err
	}

	// One schedule cycle: each fresh statement, followed by the next
	// pooled statement and the next Fig. 3 query.
	type step struct {
		stmt int // index into stmts, or -1
		q    int // index into structured, or -1
	}
	var cycle []step
	for f := 0; f < freshStatements; f++ {
		cycle = append(cycle, step{len(pooled) + f, -1}, step{f % len(pooled), -1}, step{-1, f % numFig3})
	}
	defectOps := []step{{defectIdx, -1}}
	for q := numFig3; q < len(structured); q++ {
		defectOps = append(defectOps, step{-1, q})
	}

	runStep := func(c clusterSys, log *opLog, sp step) error {
		if sp.stmt < 0 {
			q := structured[sp.q]
			var res *client.QueryResult
			rec, ok := log.call(opCount, -1, func() (err error) {
				res, err = c.s.RunCount(q)
				return err
			})
			if !ok {
				return nil
			}
			rec.fill(res.Info)
			return log.verify(checkCount(fmt.Sprintf("structured query %d", sp.q), res.Info.NHits, structTruth[sp.q]))
		}
		stmt := stmts[sp.stmt]
		var res *client.TextResult
		rec, ok := log.call(opText, -1, func() (err error) {
			res, err = c.s.RunText(stmt.text, plan.ForceAuto)
			return err
		})
		if !ok {
			return nil
		}
		rec.fill(res.Info)
		switch stmt.kind {
		case qlang.ProjIDs:
			return log.verify(checkSel(stmt.text, res.Sel, stmt.truth))
		case qlang.ProjHist:
			if err := log.verify(checkCount(stmt.text, res.Sel.NHits, stmt.truth)); err != nil {
				return err
			}
			return log.verify(checkHist(stmt.text, res.Hist, stmt.truth.values))
		default:
			return log.verify(checkCount(stmt.text, res.Sel.NHits, stmt.truth))
		}
	}
	// warm runs one cycle, so every pooled plan is cached and the
	// session holds a current view.
	warm := func(c clusterSys) error {
		for _, sp := range cycle {
			if err := runStep(c, &opLog{}, sp); err != nil {
				return err
			}
		}
		return nil
	}
	// probe runs the ops of the known defect once each, outside any
	// measured pass; a reply is still checked against the oracle.
	probe := func(c clusterSys, when string) (string, error) {
		log := &opLog{}
		for _, sp := range defectOps {
			if err := runStep(c, log, sp); err != nil {
				return "", err
			}
		}
		var failed int
		for _, r := range log.recs {
			if r.failed {
				failed++
			}
		}
		line := fmt.Sprintf("known co-location defect, %s (Fig. 4 counts and %q, not timed): %d of %d ops failed",
			when, defectStatement, failed, len(log.recs))
		for k := opKind(0); k < numKinds; k++ {
			if e, ok := log.errs[k]; ok {
				line += fmt.Sprintf("; first %s error: %s", k, e)
			}
		}
		return line, nil
	}
	if err := warm(current); err != nil {
		return nil, err
	}
	before, err := probe(current, "3 members")
	if err != nil {
		return nil, err
	}

	// phaseSys wraps one cluster as a measured system with its mid-run
	// join.
	phaseSys := func(c clusterSys) *system {
		var joined bool
		var joinMs float64
		var epochBefore uint64
		sys := &system{
			servers:        c.servers,
			rebalanceMs:    &joinMs,
			clusterImportB: c.ingestB,
		}
		sys.loop = loopSpec{
			clients: 1,
			cycle:   1,
			between: func(p int, elapsed float64) error {
				if joined || elapsed < cfg.seconds/2 {
					return nil
				}
				joined = true
				if tr != nil {
					was := tr.on.Load()
					tr.on.Store(false)
					defer tr.on.Store(was)
				}
				view := c.l.Catalog().CommittedView()
				epochBefore = view.Epoch
				t0 := wallNow()
				m, err := c.l.AddMember()
				if err != nil {
					return fmt.Errorf("mid-run join: %w", err)
				}
				if err := c.l.WaitMembers(len(view.Members)+1, 30*time.Second); err != nil {
					return fmt.Errorf("mid-run join: %w", err)
				}
				if err := waitInstalled(c.l, 30*time.Second); err != nil {
					return fmt.Errorf("mid-run join: %w", err)
				}
				joinMs = float64(wallNow()-t0) / 1e6
				if tr != nil {
					tr.hookStore(m.Store())
				}
				return nil
			},
			pass: func(_, _ int, log *opLog) error {
				for _, sp := range cycle {
					if err := runStep(c, log, sp); err != nil {
						return err
					}
				}
				return nil
			},
		}
		sys.check = func(b, a fleetCounters) error {
			hits, misses := a.planHits-b.planHits, a.planMisses-b.planMisses
			if hits == 0 || misses == 0 {
				return fmt.Errorf("cluster-text: plan-cache hit ratio %d/%d, want strictly between 0 and 1", hits, hits+misses)
			}
			if v := c.l.Catalog().CommittedView(); !joined || v.Epoch <= epochBefore {
				return fmt.Errorf("cluster-text: the mid-run join did not commit (epoch %d)", v.Epoch)
			}
			return nil
		}
		return sys
	}
	next := func() (*system, error) {
		// The untraced pass changed the membership; the traced pass gets
		// a fresh cluster in the same starting state.
		current.close()
		current = clusterSys{}
		c, _, err := buildCluster(cfg, ds, tr)
		if err != nil {
			return nil, err
		}
		current = c
		if err := warm(c); err != nil {
			return nil, err
		}
		return phaseSys(c), nil
	}
	rep, err := measure(cfg, tr, st, phaseSys(current), next, func() (*replays, error) {
		return replayLayers(tr, current.src, ds, current.ids, structured, structTruth, texts)
	})
	if err != nil {
		return nil, err
	}
	after, err := probe(current, "after the join")
	if err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, before, after)
	return rep, nil
}

// waitInstalled waits until every member of the committed view has
// installed it, which is when the join is done. The catalog commits
// before its push reaches every member, and a query the session routes
// to a member that has not installed the new view yet is refused with
// "not serving at epoch"; when the push is late, the session gives up
// after its retries and the op fails.
func waitInstalled(l *cluster.Local, timeout time.Duration) error {
	t0 := wallNow()
	for {
		v := l.Catalog().CommittedView()
		lagging := cluster.MemberID(-1)
		for _, mi := range v.Members {
			if m := l.Member(mi.ID); m == nil || m.View().Epoch != v.Epoch {
				lagging = mi.ID
				break
			}
		}
		if lagging < 0 {
			return nil
		}
		if wallNow()-t0 > int64(timeout) {
			return fmt.Errorf("member %d has not installed epoch %d after %v", lagging, v.Epoch, timeout)
		}
		telemetry.WallSleep.Sleep(time.Millisecond)
	}
}
