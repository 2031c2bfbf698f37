package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pdcquery/internal/cluster"
	"pdcquery/internal/simio"
	"pdcquery/internal/transport"
)

// tracer is the benchmark's outside-in instrumentation: a transport
// wrapper that times every frame, a storage hook that counts reads and
// charges nothing, and the spans of a traced run, kept in memory until
// the run ends. It is installed only by --trace 1 runs; its on switch
// separates the untraced reference pass from the traced pass of the same
// deployment.
type tracer struct {
	on atomic.Bool

	frames, sendNs   atomic.Int64 // request frames sent and wall ns inside Send
	reqBytes         atomic.Int64 // request payload bytes
	respBytes        atomic.Int64 // reply payload bytes
	reads, readBytes atomic.Int64 // storage reads seen by the hook
	catViews         atomic.Int64 // catalog view fetches (one per session refresh)
	traces           atomic.Int64 // trace IDs handed out

	mu    sync.Mutex
	rtts  []rtt
	spans []span
}

// rtt is one request/reply round trip seen by the transport wrapper.
type rtt struct {
	srv        int
	reqID      uint64
	send, recv int64 // wall ns
	reqBytes   int
	respBytes  int
	cat        bool // a catalog call
}

// span is one timed interval. Spans of one op share trace; parent is 0
// for an op's root span.
type span struct {
	Trace  int64            `json:"trace"`
	ID     int64            `json:"span"`
	Parent int64            `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// wrap interposes the tracer on one client-side connection.
func (t *tracer) wrap(srv int, c transport.Conn) transport.Conn {
	return &timedConn{Conn: c, t: t, srv: srv, sent: map[uint64]sentFrame{}}
}

// hookStore counts every read of st while the tracer is on. The hook
// returns no delay and no error, so the modeled cost is unchanged.
func (t *tracer) hookStore(st *simio.Store) {
	st.SetAccessHook(func(op, key string, tier simio.Tier, n int64) (time.Duration, error) {
		if t.on.Load() {
			t.reads.Add(1)
			t.readBytes.Add(n)
		}
		return 0, nil
	})
}

type sentFrame struct {
	at    int64
	bytes int
	cat   bool
}

// timedConn times Send and the round trip from a request's Send to the
// Recv of the reply carrying the same request ID.
type timedConn struct {
	transport.Conn
	t   *tracer
	srv int

	mu   sync.Mutex
	sent map[uint64]sentFrame
}

func (c *timedConn) Send(m transport.Message) error {
	if !c.t.on.Load() {
		return c.Conn.Send(m)
	}
	// The reply can arrive before Send returns, so the request is on
	// record first.
	t0 := wallNow()
	c.mu.Lock()
	c.sent[m.ReqID] = sentFrame{at: t0, bytes: len(m.Payload), cat: m.Type >= cluster.MsgCatHello}
	c.mu.Unlock()
	err := c.Conn.Send(m)
	c.t.sendNs.Add(wallNow() - t0)
	c.t.frames.Add(1)
	c.t.reqBytes.Add(int64(len(m.Payload)))
	if m.Type == cluster.MsgCatView {
		c.t.catViews.Add(1)
	}
	return err
}

func (c *timedConn) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil || !c.t.on.Load() {
		return m, err
	}
	now := wallNow()
	c.t.respBytes.Add(int64(len(m.Payload)))
	c.mu.Lock()
	s, ok := c.sent[m.ReqID]
	delete(c.sent, m.ReqID)
	c.mu.Unlock()
	if ok {
		c.t.mu.Lock()
		c.t.rtts = append(c.t.rtts, rtt{srv: c.srv, reqID: m.ReqID, send: s.at, recv: now,
			reqBytes: s.bytes, respBytes: len(m.Payload), cat: s.cat})
		c.t.mu.Unlock()
	}
	return m, nil
}

// tracedNet wraps a cluster network so every connection a session dials
// is timed.
type tracedNet struct {
	cluster.Network
	t *tracer
}

func (n tracedNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return n.t.wrap(-1, c), nil
}

// takeRTTs returns and clears the recorded round trips.
func (t *tracer) takeRTTs() []rtt {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.rtts
	t.rtts = nil
	return out
}

// addSpan records one span and returns its ID.
func (t *tracer) addSpan(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	return s.ID
}

// startTrace opens the root span of a new trace (a replay) and returns
// its trace and span IDs; endSpan closes it.
func (t *tracer) startTrace(name string) (trace, root int64) {
	trace = t.traces.Add(1)
	return trace, t.addSpan(span{Trace: trace, Name: name, Start: wallNow()})
}

// endSpan closes a span opened by addSpan without an end.
func (t *tracer) endSpan(id int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = wallNow()
}

func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// attribute returns, per round trip, the index of the op that issued it
// (-1 when unknown); ops must be sorted by start. With one client
// goroutine ops never overlap, so a round trip belongs to the op whose
// interval holds its send. With two, ops and requests are paired in
// order: each op issues exactly one request ID, and the client hands
// request IDs out in call order.
func attribute(ops []opRecord, rtts []rtt, serial bool) []int {
	owner := make([]int, len(rtts))
	if serial {
		for i, r := range rtts {
			owner[i] = sort.Search(len(ops), func(k int) bool { return ops[k].start > r.send }) - 1
		}
		return owner
	}
	rank := map[uint64]int{}
	var ids []uint64
	for _, r := range rtts {
		if _, ok := rank[r.reqID]; !ok {
			rank[r.reqID] = 0
			ids = append(ids, r.reqID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for k, id := range ids {
		rank[id] = k
	}
	for i, r := range rtts {
		owner[i] = -1
		if len(ids) == len(ops) {
			owner[i] = rank[r.reqID]
		}
	}
	return owner
}

// transportWait returns, per op, the transport time the op waited for:
// the sum over its calls of each call's slowest round trip, at most the
// op's own wall time (a failed broadcast returns before its slower
// replies arrive). A call is one request ID of one op; catalog calls are
// apart from member calls.
func transportWait(ops []opRecord, rtts []rtt, owner []int) []int64 {
	type call struct {
		op    int
		reqID uint64
		cat   bool
	}
	slowest := map[call]int64{}
	for i, r := range rtts {
		if owner[i] < 0 {
			continue
		}
		k := call{owner[i], r.reqID, r.cat}
		if d := r.recv - r.send; d > slowest[k] {
			slowest[k] = d
		}
	}
	wait := make([]int64, len(ops))
	for k, d := range slowest {
		wait[k.op] += d
	}
	for i := range wait {
		wait[i] = min(wait[i], ops[i].wall)
	}
	return wait
}

// opSpans records a measured pass as spans: a root span per op and a
// child per round trip, sharing the op's trace ID.
func (t *tracer) opSpans(ops []opRecord, rtts []rtt, owner []int) {
	firstTrace := t.traces.Add(int64(len(ops))) - int64(len(ops)) + 1
	roots := make([]int64, len(ops))
	for k, op := range ops {
		roots[k] = t.addSpan(span{Trace: firstTrace + int64(k), Name: "op." + op.kind.String(),
			Start: op.start, End: op.start + op.wall,
			Attrs: map[string]int64{"failed": boolInt(op.failed), "modeled_ns": op.modeled}})
	}
	for i, r := range rtts {
		s := span{Name: "transport.rtt", Start: r.send, End: r.recv,
			Attrs: map[string]int64{"srv": int64(r.srv), "req_bytes": int64(r.reqBytes), "resp_bytes": int64(r.respBytes)}}
		if k := owner[i]; k >= 0 && k < len(ops) {
			s.Trace, s.Parent = firstTrace+int64(k), roots[k]
		}
		t.addSpan(s)
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// writeSpans writes every span as one JSON line, times relative to the
// first span's start.
func (t *tracer) writeSpans(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var base int64
	for i, s := range spans {
		if i == 0 || s.Start < base {
			base = s.Start
		}
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		s.Start -= base
		s.End -= base
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// allocCounter reads the process's cumulative heap allocations (objects
// and bytes) without stopping the world.
type allocCounter struct{ s [2]metrics.Sample }

func newAllocCounter() *allocCounter {
	a := &allocCounter{}
	a.s[0].Name = "/gc/heap/allocs:objects"
	a.s[1].Name = "/gc/heap/allocs:bytes"
	return a
}

func (a *allocCounter) read() (objects, bytes uint64) {
	metrics.Read(a.s[:])
	return a.s[0].Value.Uint64(), a.s[1].Value.Uint64()
}
