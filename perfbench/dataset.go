package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"

	"pdcquery/internal/core"
	"pdcquery/internal/dtype"
	"pdcquery/internal/histogram"
	"pdcquery/internal/object"
	"pdcquery/internal/query"
	"pdcquery/internal/selection"
	"pdcquery/internal/telemetry"
	"pdcquery/internal/workload"
)

// objNames are the four VPIC objects every workload imports.
var objNames = [4]string{"Energy", "x", "y", "z"}

// dataset is the benchmark's input: the generated VPIC particles. Its
// generation is not part of any timed phase.
type dataset struct {
	n    int
	vals [4][]float32 // objNames order
	// regionBytes splits each object into 16 regions (256 KiB at 2^20
	// particles).
	regionBytes int64
}

func newDataset(logN int, seed uint64) *dataset {
	v := workload.GenerateVPIC(1<<logN, seed)
	ds := &dataset{n: v.N, regionBytes: int64(v.N) * 4 / 16}
	for i, name := range objNames {
		ds.vals[i] = v.Vars[name]
	}
	return ds
}

// vpicIDs are the imported objects' IDs, in objNames order.
type vpicIDs [4]object.ID

func (ids vpicIDs) energy() object.ID { return ids[0] }

// fig34 returns the paper's 15 single-object (Fig. 3) and 6 multi-object
// (Fig. 4) queries.
func (ids vpicIDs) fig34() []*query.Query {
	qs := workload.SingleObjectQueries(ids[0])
	return append(qs, workload.MultiObjectQueries(ids[0], ids[1], ids[2], ids[3])...)
}

// fig34Oracle returns the Fig. 3/Fig. 4 queries and their oracle
// answers on src.
func fig34Oracle(src *core.Deployment, ds *dataset, ids vpicIDs) ([]*query.Query, []*truth, error) {
	qs := ids.fig34()
	truths := make([]*truth, len(qs))
	for i, q := range qs {
		t, err := oracle(src, ds, q, -1)
		if err != nil {
			return nil, nil, err
		}
		truths[i] = t
	}
	return qs, truths, nil
}

// setupTimes are the wall times of one set-up.
type setupTimes struct {
	total   float64 // first import call until ready to query
	importS float64 // core.ImportObject calls (data, histograms, indexes)
	replica float64 // sorted replica and its companions
	cluster float64 // cluster.Session.Import (cluster-text only)
}

// importVPIC builds a deployment with opts, imports the four objects
// and the Energy sorted replica with x/y/z companions. It does not start
// the deployment.
func importVPIC(ds *dataset, opts core.Options) (*core.Deployment, vpicIDs, setupTimes, error) {
	var ids vpicIDs
	var st setupTimes
	opts.RegionBytes = ds.regionBytes
	opts.BuildIndex = true
	t0 := wallNow()
	d := core.NewDeployment(opts)
	c := d.CreateContainer("vpic")
	for i, name := range objNames {
		o, err := d.ImportObject(c.ID, object.Property{
			Name: name, Type: dtype.Float32, Dims: []uint64{uint64(ds.n)},
		}, dtype.Bytes(ds.vals[i]))
		if err != nil {
			return nil, ids, st, fmt.Errorf("import %s: %w", name, err)
		}
		ids[i] = o.ID
	}
	t1 := wallNow()
	if err := d.BuildSortedReplica(ids[0]); err != nil {
		return nil, ids, st, err
	}
	if err := d.AddCompanions(ids[0], ids[1], ids[2], ids[3]); err != nil {
		return nil, ids, st, err
	}
	st.importS = secondsBetween(t0, t1)
	st.replica = secondsBetween(t1, wallNow())
	return d, ids, st, nil
}

// repeatSetup runs setup n times and keeps the last system; the earlier
// ones are closed as soon as the next one is built. It returns the
// per-field medians.
func repeatSetup[T any](n int, setup func() (T, setupTimes, error), closeFn func(T)) (T, setupTimes, error) {
	var keep T
	var runs []setupTimes
	for i := 0; i < n; i++ {
		// Each set-up starts from a collected heap, so none pays for
		// the garbage of the one before.
		runtime.GC()
		sys, st, err := setup()
		if err != nil {
			if i > 0 {
				closeFn(keep)
			}
			return keep, setupTimes{}, err
		}
		if i > 0 {
			closeFn(keep)
		}
		keep = sys
		runs = append(runs, st)
	}
	med := func(f func(setupTimes) float64) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	return keep, setupTimes{
		total:   med(func(s setupTimes) float64 { return s.total }),
		importS: med(func(s setupTimes) float64 { return s.importS }),
		replica: med(func(s setupTimes) float64 { return s.replica }),
		cluster: med(func(s setupTimes) float64 { return s.cluster }),
	}, nil
}

// truth is the brute-force answer to one query or statement.
type truth struct {
	sel *selection.Selection
	// values are the raw bytes of one object at sel.Coords, in
	// coordinate order: the expected GetData reply, or the values a
	// hist projection bins.
	values []float32
}

// oracle computes the truth of q with core.Deployment.GroundTruth on
// src. When valuesOf is non-negative the matching values of that object
// (objNames index) are kept too.
func oracle(src *core.Deployment, ds *dataset, q *query.Query, valuesOf int) (*truth, error) {
	sel, err := src.GroundTruth(q)
	if err != nil {
		return nil, err
	}
	t := &truth{sel: sel}
	if valuesOf >= 0 {
		t.values = make([]float32, len(sel.Coords))
		for i, c := range sel.Coords {
			t.values[i] = ds.vals[valuesOf][c]
		}
	}
	return t, nil
}

// wrongAnswer reports a reply that differs from the oracle.
type wrongAnswer struct {
	op, what string
}

func (e *wrongAnswer) Error() string { return fmt.Sprintf("wrong answer: %s: %s", e.op, e.what) }

// checkCount compares a hit count.
func checkCount(op string, got uint64, t *truth) error {
	if got != t.sel.NHits {
		return &wrongAnswer{op, fmt.Sprintf("%d hits, oracle %d", got, t.sel.NHits)}
	}
	return nil
}

// checkSel compares a full selection field by field: hit count, element
// coordinates and dimensions, which is everything its wire encoding holds.
func checkSel(op string, got *selection.Selection, t *truth) error {
	if err := checkCount(op, got.NHits, t); err != nil {
		return err
	}
	if got.CountOnly || !slices.Equal(got.Coords, t.sel.Coords) || !slices.Equal(got.Dims, t.sel.Dims) {
		return &wrongAnswer{op, "selection differs from the oracle"}
	}
	return nil
}

// checkData compares GetData bytes with the oracle's values.
func checkData(op string, got []byte, t *truth) error {
	if len(got) != 4*len(t.values) {
		return &wrongAnswer{op, fmt.Sprintf("%d data bytes, oracle %d", len(got), 4*len(t.values))}
	}
	if !bytes.Equal(got, dtype.Bytes(t.values)) {
		return &wrongAnswer{op, "data bytes differ from the oracle"}
	}
	return nil
}

// checkHist recounts the oracle's values on the histogram's own grid:
// region and server histograms merge exactly onto the coarsest grid, so
// every bin count, the total and the exact extrema must match.
func checkHist(op string, h *histogram.Histogram, values []float32) error {
	if h == nil {
		if len(values) == 0 {
			return nil
		}
		return &wrongAnswer{op, "no histogram"}
	}
	if h.Total != uint64(len(values)) {
		return &wrongAnswer{op, fmt.Sprintf("histogram total %d, oracle %d", h.Total, len(values))}
	}
	if len(values) == 0 {
		return nil
	}
	counts := make([]uint64, len(h.Counts))
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v32 := range values {
		v := float64(v32)
		lo, hi = math.Min(lo, v), math.Max(hi, v)
		i := int(math.Floor((v - h.Start) / h.Width))
		if i < 0 || i >= len(counts) {
			return &wrongAnswer{op, fmt.Sprintf("value %g outside the histogram grid", v)}
		}
		counts[i]++
	}
	if lo != h.Min || hi != h.Max || !slices.Equal(counts, h.Counts) {
		return &wrongAnswer{op, "histogram differs from the oracle"}
	}
	return nil
}

// wallNow reads the wall clock through the telemetry seam.
func wallNow() int64 { return telemetry.Wall.Now() }

func secondsBetween(t0, t1 int64) float64 { return float64(t1-t0) / 1e9 }

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by the nearest-rank method.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
