package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"nntstream/internal/core"
	"nntstream/internal/datagen"
	"nntstream/internal/graph"
	"nntstream/internal/server"
)

// spec fixes one workload's shape. The rates are constants, not measured at
// run time: two commits must be compared at the same offered load. The
// open-loop rate is a sixth to a quarter of the capacity measured for the
// workload on the commit that introduced the benchmark (2 vCPU, GOMAXPROCS
// 2): on that shared host capacity moved by up to a third between runs, and
// nearer to it a dip let the queue grow and the percentiles run away. The
// longest requests (dense-streams, about 7 ms) get the lowest share: at a
// quarter, their median latency followed the host's CPU steal more than any
// other bounded figure (spread 0.19 over ten seeds), and a lower load
// leaves less of a queue for a stall to build.
type spec struct {
	name string
	// openRate is the writer's offered rate in requests/s during the
	// open-loop phase; readRate the reader's GET /v1/candidates rate. The
	// two differ so that reads fall at every phase of the writer's cycle
	// rather than at a fixed offset from each write, which would make read
	// latency depend on how the two goroutines happened to start.
	openRate, readRate float64
	// closedPerSecond sizes the closed-loop phase: requests per second of
	// --seconds, 0.3 of the measured capacity so the phase takes about 30%
	// of the run. The capacity figure rests on that much time, so a longer
	// phase averages over more of the host's slow and fast spells.
	closedPerSecond float64
	// churnEvery swaps one query (DELETE, then POST a replacement) after
	// every churnEvery ingest requests of both phases; 0 disables churn.
	churnEvery int
	generate   func(r *rand.Rand, steps int) generated
}

// generated is a workload's raw input: the initial queries, the recorded
// streams, and (with churn) the replacement queries grouped by template.
type generated struct {
	queries  []*graph.Graph
	template []int // template of each initial query, for churn
	pool     [][]*graph.Graph
	streams  []*graph.Stream
}

// The open-loop phase lasts openShare of --seconds at openRate; the closed
// loop is sized by closedPerSecond. Both are split into rounds alternating
// open and closed parts, so that each figure samples the whole run rather
// than one stretch of it: a stall on the host then moves a part of each
// figure's samples, not all or none of them. warmSteps ingest requests (the
// first ends set-up) run before any timing.
const (
	openShare = 0.75
	rounds    = 5
	warmSteps = 20
)

// round is one open-loop part followed by one closed-loop part.
type round struct {
	open, closed []request
}

// specs lists the workloads; README.md gives why each exists.
var specs = []spec{
	{
		name:            "small-batches",
		openRate:        100,
		readRate:        65,
		closedPerSecond: 132,
		generate:        genSmallBatches,
	},
	{
		name:            "dense-streams",
		openRate:        20,
		readRate:        65,
		closedPerSecond: 35,
		generate:        genDenseStreams,
	},
	{
		name:            "many-queries",
		openRate:        60,
		readRate:        65,
		closedPerSecond: 48,
		churnEvery:      50,
		generate:        genManyQueries,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// lowChurn is the QSweep stream regime: a few edge events per timestamp at
// the sparse regime's stationary density.
func lowChurn(steps int) datagen.FlipConfig {
	return datagen.FlipConfig{AppearProb: 0.002, DisappearProb: 0.006, Timestamps: steps}
}

// independentStreams generates n streams, each from its own basic graph
// database. datagen.SyntheticStreams builds all the basic graphs of one call
// from one pool of seed fragments, so streams of one call share structure;
// separate calls make them independent, so a run's figures average over n
// draws. Basic graphs more than 10% off the configured size are drawn again:
// datagen sizes them by a Poisson law, and a seed that drew one large graph
// would otherwise set the run's figures by itself.
func independentStreams(cfg datagen.StreamWorkloadConfig, n int, r *rand.Rand) (basics []*graph.Graph, streams []*graph.Stream) {
	cfg.Gen.NumGraphs = 1
	lo, hi := int(cfg.Gen.GraphSize*0.9), int(math.Ceil(cfg.Gen.GraphSize*1.1))
	for len(streams) < n {
		w := datagen.SyntheticStreams(cfg, r)
		if e := w.Basics[0].EdgeCount(); e < lo || e > hi {
			continue
		}
		basics = append(basics, w.Basics...)
		streams = append(streams, w.Streams...)
	}
	return basics, streams
}

// Workload sizes. Each is scaled from the shape the workload is named for
// by stream count and template size only, so that one run fits the run
// length. A stream's cost per op depends on its basic graph's shape, so the
// stream count also sets how far a seed's figures rest on its draws: with 4
// dense streams the NNT node churn per op (the dominant cost) spread 17%
// (IQR/median) over 20 seeds, with 8 streams 7%.
const (
	smallStreams, smallGraphSize, smallQueries = 16, 14, 32
	denseStreams, denseGraphSize, denseQueries = 8, 12, 4 // queries per stream
	manyStreams, manyGraphSize                 = 4, 8
	// manyTemplates templates in all, spread over the streams' basic
	// graphs, each with manyPerTemplate initial variants plus manyPool
	// replacements for churn.
	manyTemplates, manyPerTemplate, manyPool = 64, 24, 16
)

func genSmallBatches(r *rand.Rand, steps int) generated {
	cfg := datagen.DefaultStreamWorkload(lowChurn(steps))
	cfg.Gen.GraphSize = smallGraphSize
	_, streams := independentStreams(cfg, smallStreams, r)
	db := make([]*graph.Graph, len(streams))
	for i, s := range streams {
		db[i] = s.Start
	}
	return generated{queries: datagen.QuerySet(db, smallQueries, 6, r), streams: streams}
}

// genDenseStreams extracts denseQueries independent patterns of 4-6 edges
// from each stream's basic graph, as datagen.SyntheticStreams extracts one.
func genDenseStreams(r *rand.Rand, steps int) generated {
	flip := datagen.DenseFlipDefaults()
	flip.Timestamps = steps
	cfg := datagen.DefaultStreamWorkload(flip)
	cfg.Gen.GraphSize = denseGraphSize
	cfg.Template.ExtraEdgeFrac = 3
	basics, streams := independentStreams(cfg, denseStreams, r)
	g := generated{streams: streams}
	for _, b := range basics {
		for i := 0; i < denseQueries; i++ {
			g.queries = append(g.queries, datagen.RandomConnectedSubgraph(b, 4+r.Intn(3), r))
		}
	}
	return g
}

// genManyQueries draws the queries from the streams' basic graphs, which
// are connected, so every query has its full edge count. The streams flip
// at three times the QSweep rates (same stationary density), so that most
// requests carry an op: at the QSweep rates about half the requests of four
// small streams would be empty, and the median latency would fall on the
// boundary between empty and working requests.
func genManyQueries(r *rand.Rand, steps int) generated {
	flip := lowChurn(steps)
	flip.AppearProb *= 3
	flip.DisappearProb *= 3
	cfg := datagen.DefaultStreamWorkload(flip)
	cfg.Gen.GraphSize = manyGraphSize
	basics, streams := independentStreams(cfg, manyStreams, r)
	g := generated{streams: streams}
	perBasic := manyTemplates / len(basics)
	for _, b := range basics {
		qs := datagen.OverlapQuerySet(b, datagen.OverlapConfig{
			Templates: perBasic, PerTemplate: manyPerTemplate + manyPool, Edges: 6, Overlap: 0.5,
		}, r)
		for t := 0; t < perBasic; t++ {
			tid := len(g.pool)
			variants := qs[t*(manyPerTemplate+manyPool) : (t+1)*(manyPerTemplate+manyPool)]
			for _, q := range variants[:manyPerTemplate] {
				g.queries = append(g.queries, q)
				g.template = append(g.template, tid)
			}
			g.pool = append(g.pool, variants[manyPerTemplate:])
		}
	}
	return g
}

// reqKind separates the writer's request types, whose latencies are
// reported apart.
type reqKind int

const (
	kindIngest reqKind = iota
	kindAddQuery
	kindRemoveQuery
	kindAddStream
	kindRead
	numKinds
)

// request is one pre-built HTTP request and the answer it must get.
type request struct {
	kind   reqKind
	method string
	path   string
	body   []byte
	ops    int // edge ops carried (ingest)
	slots  int // streams × registered queries when the step applies (ingest)
	// id is the id a registration must be assigned or the query a DELETE
	// removes; -1 otherwise. graph is the registered graph.
	id    int
	graph *graph.Graph
}

// workload is everything a run sends, generated before any timing.
type workload struct {
	spec
	streams []*graph.Stream
	// setup registers every query and stream and sends the first ingest
	// step, whose acknowledgement ends set-up.
	setup []request
	// warm is sent next, untimed; then the rounds, in order.
	warm   []request
	rounds []round
	// initial is the query set registered at set-up (query i gets id i);
	// queries the set left registered after every request.
	initial []*graph.Graph
	queries map[core.QueryID]*graph.Graph
	// steps is the total number of timestamps sent.
	steps int
}

// buildWorkload generates the named workload for a run of the given length.
func buildWorkload(name string, seed int64, seconds int) (*workload, error) {
	sp, err := findSpec(name)
	if err != nil {
		return nil, err
	}
	nOpen := int(sp.openRate*openShare*float64(seconds) + 0.5)
	nClosed := int(sp.closedPerSecond*float64(seconds) + 0.5)
	steps := warmSteps + nOpen + nClosed
	g := sp.generate(rand.New(rand.NewSource(seed)), steps)
	w := &workload{spec: sp, streams: g.streams, steps: steps,
		initial: g.queries, queries: make(map[core.QueryID]*graph.Graph)}

	for i, q := range g.queries {
		w.setup = append(w.setup, graphRequest(kindAddQuery, "/v1/queries", q, i))
		w.queries[core.QueryID(i)] = q
	}
	for i, s := range g.streams {
		w.setup = append(w.setup, graphRequest(kindAddStream, "/v1/streams", s.Start, i))
	}
	ingest := make([]request, steps)
	for t := range ingest {
		ingest[t] = ingestRequest(g.streams, t)
		ingest[t].slots = len(g.streams) * len(g.queries) // churn keeps the count
	}
	w.setup = append(w.setup, ingest[0])
	w.warm = ingest[1:warmSteps]

	// Churn draws victims and replacements from its own generator so the
	// stream and query inputs do not depend on the churn rate.
	cr := rand.New(rand.NewSource(seed ^ 0x5eed))
	live := make([]core.QueryID, len(g.queries))
	templateOf := make(map[core.QueryID]int, len(g.queries))
	for i := range live {
		live[i] = core.QueryID(i)
		if g.template != nil {
			templateOf[core.QueryID(i)] = g.template[i]
		}
	}
	nextID := len(g.queries)
	used := make([]int, len(g.pool))
	sent := 0 // ingest requests across all rounds, for the churn cadence
	withChurn := func(reqs []request) []request {
		if sp.churnEvery <= 0 {
			return reqs
		}
		var out []request
		for _, rq := range reqs {
			out = append(out, rq)
			if sent++; sent%sp.churnEvery != 0 {
				continue
			}
			vi := cr.Intn(len(live))
			victim := live[vi]
			t := templateOf[victim]
			repl := g.pool[t][used[t]%len(g.pool[t])]
			used[t]++
			id := core.QueryID(nextID)
			nextID++
			out = append(out,
				request{kind: kindRemoveQuery, method: "DELETE", path: "/v1/queries/" + strconv.Itoa(int(victim)), id: int(victim)},
				graphRequest(kindAddQuery, "/v1/queries", repl, int(id)))
			delete(w.queries, victim)
			delete(templateOf, victim)
			w.queries[id] = repl
			templateOf[id] = t
			live[vi] = id
		}
		return out
	}
	// Round r takes the next nOpen/rounds steps for its open loop and the
	// next nClosed/rounds for its closed loop, so the streams' timestamps
	// still go out in order.
	next := warmSteps
	for r := 0; r < rounds; r++ {
		o := nOpen*(r+1)/rounds - nOpen*r/rounds
		c := nClosed*(r+1)/rounds - nClosed*r/rounds
		w.rounds = append(w.rounds, round{
			open:   withChurn(ingest[next : next+o]),
			closed: withChurn(ingest[next+o : next+o+c]),
		})
		next += o + c
	}
	return w, nil
}

func graphRequest(kind reqKind, path string, g *graph.Graph, id int) request {
	body, err := json.Marshal(map[string]server.WireGraph{"graph": server.FromGraph(g)})
	if err != nil {
		panic(err) // a WireGraph always marshals
	}
	return request{kind: kind, method: "POST", path: path, body: body, id: id, graph: g}
}

// ingestRequest encodes timestamp t of every stream as one canonical NDJSON
// step frame (the /v1/ingest wire format). Stream i is registered as id i.
func ingestRequest(streams []*graph.Stream, t int) request {
	b := []byte(`{"changes":[`)
	ops := 0
	first := true
	for sid, s := range streams {
		cs := s.Changes[t]
		if len(cs) == 0 {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, `{"stream":`...)
		b = strconv.AppendInt(b, int64(sid), 10)
		b = append(b, `,"ops":[`...)
		for i, op := range cs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendOp(b, op)
		}
		b = append(b, "]}"...)
		ops += len(cs)
	}
	b = append(b, "]}\n"...)
	return request{kind: kindIngest, method: "POST", path: "/v1/ingest", body: b, ops: ops, id: -1}
}

func appendOp(b []byte, op graph.ChangeOp) []byte {
	if op.Kind == graph.OpInsert {
		b = append(b, `{"op":"ins","u":`...)
	} else {
		b = append(b, `{"op":"del","u":`...)
	}
	b = strconv.AppendInt(b, int64(op.U), 10)
	b = append(b, `,"v":`...)
	b = strconv.AppendInt(b, int64(op.V), 10)
	if op.Kind == graph.OpInsert {
		b = append(b, `,"ul":`...)
		b = strconv.AppendInt(b, int64(op.ULabel), 10)
		b = append(b, `,"vl":`...)
		b = strconv.AppendInt(b, int64(op.VLabel), 10)
		b = append(b, `,"el":`...)
		b = strconv.AppendInt(b, int64(op.EdgeLabel), 10)
	}
	return append(b, '}')
}

// writerRequests lists every writer request of a run in send order.
func (w *workload) writerRequests() []request {
	var out []request
	out = append(out, w.setup...)
	out = append(out, w.warm...)
	for _, r := range w.rounds {
		out = append(out, r.open...)
		out = append(out, r.closed...)
	}
	return out
}

// finalGraphs replays every stream through all sent timestamps on the
// benchmark's own copies of the graphs.
func (w *workload) finalGraphs() (map[core.StreamID]*graph.Graph, error) {
	out := make(map[core.StreamID]*graph.Graph, len(w.streams))
	for i, s := range w.streams {
		g := s.Start.Clone()
		for t := 0; t < w.steps; t++ {
			if err := s.Changes[t].Apply(g); err != nil {
				return nil, fmt.Errorf("stream %d step %d: %w", i, t, err)
			}
		}
		out[core.StreamID(i)] = g
	}
	return out, nil
}

// sortedQueryIDs returns the final query ids in ascending order.
func (w *workload) sortedQueryIDs() []core.QueryID {
	ids := make([]core.QueryID, 0, len(w.queries))
	for id := range w.queries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
