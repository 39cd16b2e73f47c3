// Package queuesim implements the paper's §6 discrete-event simulation model
// (the Go counterpart of the authors' "absim" simulator):
//
//   - N servers, each a FIFO queue feeding k parallel service slots;
//   - exponential service times whose mean fluctuates bimodally: every
//     "fluctuation interval" T each server independently sets its service
//     rate to µ or D·µ with equal probability;
//   - an open-loop Poisson workload whose rate is a chosen fraction of the
//     system's average capacity;
//   - clients running a pluggable replica-selection policy over replica
//     groups of RF consecutive servers, with a 10% read-repair broadcast and
//     a fixed one-way network latency.
//
// Figures 14 and 15 are direct sweeps over this model.
package queuesim

import (
	"fmt"
	"math/rand/v2"
	"time"

	"c3/internal/core"
	"c3/internal/ewma"
	"c3/internal/ratelimit"
	"c3/internal/sim"
	"c3/internal/stats"
)

// Policy names accepted by Config.Policy.
const (
	PolicyC3         = "C3"   // cubic ranking + rate control (the paper's system)
	PolicyC3RankOnly = "C3-R" // cubic ranking without rate control (ablation)
	PolicyLOR        = "LOR"  // least outstanding requests
	PolicyRR         = "RR"   // round robin + rate control (paper baseline)
	PolicyOracle     = "ORA"  // instantaneous q/µ oracle
	PolicyRandom     = "RND"
	PolicyLRT        = "LRT"
	PolicyWRand      = "WRND"
	PolicyTwoChoice  = "2C"
)

// Config parameterizes one simulation run. Zero fields take the paper's §6
// values (DefaultConfig).
type Config struct {
	Policy string

	Servers     int           // number of servers (50)
	Slots       int           // parallel service slots per server (4)
	MeanService time.Duration // 1/µ, base mean service time (4 ms)
	D           float64       // bimodal range parameter (3)
	Fluctuation time.Duration // T, service-rate change interval (e.g. 500 ms)

	Utilization float64 // arrival rate as a fraction of average capacity
	Clients     int     // number of client nodes (150 or 300)
	Replication int     // replica group size (3)
	ReadRepair  float64 // probability a request is broadcast to all replicas (0.1)
	NetOneWay   time.Duration

	Requests int    // total requests to generate (600,000)
	Seed     uint64 // RNG seed; every stream derives from it

	// SkewFraction, when > 0, routes SkewDemand of all requests through
	// SkewFraction of the clients (Fig. 15 uses 0.2/0.5 with 0.8 demand).
	SkewFraction float64
	SkewDemand   float64

	// Exponent overrides the C3 scoring exponent b (ablation; default 3).
	Exponent float64
	// Alpha overrides the EWMA smoothing factor for feedback signals.
	Alpha float64
	// NoConcurrencyComp disables the os·w term in q̂ (ablation).
	NoConcurrencyComp bool
	// RateConfig overrides the cubic rate controller parameters.
	RateConfig ratelimit.Config
}

// DefaultConfig returns the §6 experimental setup at the high-utilization
// operating point.
func DefaultConfig() Config {
	return Config{
		Policy:      PolicyC3,
		Servers:     50,
		Slots:       4,
		MeanService: 4 * time.Millisecond,
		D:           3,
		Fluctuation: 500 * time.Millisecond,
		Utilization: 0.70,
		Clients:     150,
		Replication: 3,
		ReadRepair:  0.1,
		NetOneWay:   250 * time.Microsecond,
		Requests:    600_000,
		SkewDemand:  0.8,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Policy == "" {
		c.Policy = d.Policy
	}
	if c.Servers <= 0 {
		c.Servers = d.Servers
	}
	if c.Slots <= 0 {
		c.Slots = d.Slots
	}
	if c.MeanService <= 0 {
		c.MeanService = d.MeanService
	}
	if c.D <= 0 {
		c.D = d.D
	}
	if c.Fluctuation <= 0 {
		c.Fluctuation = d.Fluctuation
	}
	if c.Utilization <= 0 {
		c.Utilization = d.Utilization
	}
	if c.Clients <= 0 {
		c.Clients = d.Clients
	}
	if c.Replication <= 0 {
		c.Replication = d.Replication
	}
	if c.ReadRepair < 0 {
		c.ReadRepair = 0
	}
	if c.NetOneWay <= 0 {
		c.NetOneWay = d.NetOneWay
	}
	if c.Requests <= 0 {
		c.Requests = d.Requests
	}
	if c.SkewDemand <= 0 {
		c.SkewDemand = d.SkewDemand
	}
	if c.Replication > c.Servers {
		c.Replication = c.Servers
	}
	return c
}

// Result carries the measurements of one run.
type Result struct {
	Policy     string
	Latency    stats.Summary // end-to-end request latency, milliseconds
	Sample     *stats.Sample // raw latency sample (ms)
	Throughput float64       // completed requests per simulated second

	// Backpressured counts requests that waited in a backlog queue;
	// MaxBacklog is the largest backlog observed across replica groups.
	Backpressured uint64
	MaxBacklog    int

	// PerServer counts primary requests served by each server, a fairness
	// / load-conditioning signal.
	PerServer []int

	SimDuration time.Duration
}

// request is one client request moving through the model.
type request struct {
	client  *client
	group   int
	tArrive int64
	repair  bool
}

// flight is one copy of a request in transit to a server.
type flight struct {
	req     *request
	server  core.ServerID
	tSent   int64
	svc     int64 // filled at service completion, ns
	qlen    int   // queue feedback at completion
	primary bool
}

type server struct {
	id    core.ServerID
	slots int
	busy  int
	queue []*flight
	head  int
	mean  float64 // current mean service time, ns
	rng   *rand.Rand

	// svcEst is the server's own smoothed service-time estimate across
	// all requests it completes; this is the "1/µs" each response carries
	// (the paper's servers report their service rate, which aggregates
	// every client's requests and therefore tracks rate changes within a
	// few completions).
	svcEst ewma.EWMA
}

func (sv *server) qlen() int { return len(sv.queue) - sv.head + sv.busy }

type client struct {
	id     int
	core   *core.Client
	scheds []*core.GroupScheduler[*request]
	waking []bool
}

// engine owns one simulation run.
type engine struct {
	cfg     Config
	s       *sim.Sim
	servers []*server
	clients []*client
	groups  [][]core.ServerID
	reg     *core.Registry // cluster-wide server index, shared by all clients

	baseMean  float64 // ns
	arrived   int
	done      int
	tLastDone int64

	res     *Result
	arrRand *rand.Rand // arrival process and routing decisions
	fluct   *rand.Rand
}

// Run executes one simulation and returns its measurements.
func Run(cfg Config) *Result {
	cfg = cfg.withDefaults()
	e := &engine{
		cfg:      cfg,
		s:        sim.New(),
		baseMean: float64(cfg.MeanService),
		arrRand:  sim.RNG(cfg.Seed, 1),
		fluct:    sim.RNG(cfg.Seed, 2),
	}
	e.res = &Result{
		Policy:    cfg.Policy,
		Sample:    stats.NewSample(cfg.Requests),
		PerServer: make([]int, cfg.Servers),
	}
	e.build()
	e.scheduleFluctuation()
	e.scheduleArrival()
	e.s.Run()

	e.res.Latency = e.res.Sample.Summarize()
	// The run ends when the last response lands; trailing fluctuation
	// ticks must not dilute the throughput figure.
	e.res.SimDuration = time.Duration(e.tLastDone)
	if e.tLastDone > 0 {
		e.res.Throughput = float64(e.done) / (float64(e.tLastDone) / 1e9)
	}
	for _, c := range e.clients {
		for _, g := range c.scheds {
			if g.HighWater() > e.res.MaxBacklog {
				e.res.MaxBacklog = g.HighWater()
			}
		}
	}
	return e.res
}

// build constructs servers, replica groups and clients.
func (e *engine) build() {
	cfg := e.cfg
	e.servers = make([]*server, cfg.Servers)
	for i := range e.servers {
		e.servers[i] = &server{
			id:     core.ServerID(i),
			slots:  cfg.Slots,
			mean:   e.baseMean,
			rng:    sim.RNG(cfg.Seed, 100+uint64(i)),
			svcEst: ewma.New(0.2),
		}
	}
	ids := make([]core.ServerID, cfg.Servers)
	for i := range ids {
		ids[i] = core.ServerID(i)
	}
	e.reg = core.NewRegistry(ids...)
	// Replica groups: RF consecutive servers on a ring, one group per
	// server (the consistent-hashing layout without modelling keys, as
	// the paper prescribes).
	e.groups = make([][]core.ServerID, cfg.Servers)
	for i := range e.groups {
		g := make([]core.ServerID, cfg.Replication)
		for j := 0; j < cfg.Replication; j++ {
			g[j] = core.ServerID((i + j) % cfg.Servers)
		}
		e.groups[i] = g
	}
	e.clients = make([]*client, cfg.Clients)
	for i := range e.clients {
		e.clients[i] = e.newClient(i)
	}
}

// newClient wires a client with the configured policy.
func (e *engine) newClient(id int) *client {
	cfg := e.cfg
	seed := cfg.Seed ^ (0x5eed<<32 + uint64(id))
	w := float64(cfg.Clients)
	if cfg.NoConcurrencyComp {
		w = -1 // RankerConfig: negative disables the term
	}
	rcfg := core.RankerConfig{
		Alpha:             cfg.Alpha,
		ConcurrencyWeight: w,
		Exponent:          cfg.Exponent,
		Seed:              seed,
		Registry:          e.reg,
	}
	var ranker core.Ranker
	rateControl := false
	switch cfg.Policy {
	case PolicyC3:
		ranker = core.NewCubicRanker(rcfg)
		rateControl = true
	case PolicyC3RankOnly:
		ranker = core.NewCubicRanker(rcfg)
	case PolicyLOR:
		ranker = core.NewLOR(e.reg, seed)
	case PolicyRR:
		ranker = core.NewRoundRobin(e.reg)
		rateControl = true
	case PolicyOracle:
		ranker = core.NewOracle(e.oracle, seed)
	case PolicyRandom:
		ranker = core.NewRandom(seed)
	case PolicyLRT:
		ranker = core.NewLeastResponseTime(e.reg, 0, seed)
	case PolicyWRand:
		ranker = core.NewWeightedRandom(e.reg, 0, seed)
	case PolicyTwoChoice:
		ranker = core.NewTwoChoice(e.reg, seed)
	default:
		panic(fmt.Sprintf("queuesim: unknown policy %q", cfg.Policy))
	}
	cc := core.NewClient(ranker, core.ClientConfig{RateControl: rateControl, Rate: cfg.RateConfig})
	cl := &client{
		id:     id,
		core:   cc,
		scheds: make([]*core.GroupScheduler[*request], len(e.groups)),
		waking: make([]bool, len(e.groups)),
	}
	for g := range e.groups {
		cl.scheds[g] = core.NewGroupScheduler[*request](cc, e.groups[g])
	}
	return cl
}

// oracle exposes instantaneous server state for the ORA policy.
func (e *engine) oracle(s core.ServerID) (float64, float64) {
	sv := e.servers[s]
	return float64(sv.qlen()), sv.mean / 1e9
}

// scheduleFluctuation flips every server's service rate between µ and D·µ
// each interval, while work remains.
func (e *engine) scheduleFluctuation() {
	var tick func()
	tick = func() {
		for _, sv := range e.servers {
			if e.fluct.Float64() < 0.5 {
				sv.mean = e.baseMean
			} else {
				sv.mean = e.baseMean / e.cfg.D
			}
		}
		if e.done < e.cfg.Requests {
			e.s.AfterDur(e.cfg.Fluctuation, tick)
		}
	}
	e.s.After(0, tick)
}

// arrivalRate returns the Poisson arrival rate in requests per second:
// Utilization × (Servers × Slots × average service rate), where the average
// rate per slot is (µ + D·µ)/2. Read-repair broadcasts multiply every
// request into 1 + p·(RF−1) server-side copies; the arrival rate is
// discounted by that factor so the configured utilization is the utilization
// the servers actually see (otherwise "70%" would silently run at 84%).
func (e *engine) arrivalRate() float64 {
	mu := 1e9 / e.baseMean // requests/sec per slot at base rate
	avg := mu * (1 + e.cfg.D) / 2
	repairFactor := 1 + e.cfg.ReadRepair*float64(e.cfg.Replication-1)
	return e.cfg.Utilization * float64(e.cfg.Servers*e.cfg.Slots) * avg / repairFactor
}

// scheduleArrival drives the open-loop Poisson arrival process.
func (e *engine) scheduleArrival() {
	meanGap := 1e9 / e.arrivalRate() // ns
	var arrive func()
	arrive = func() {
		e.arrived++
		e.inject()
		if e.arrived < e.cfg.Requests {
			e.s.After(sim.Exp(e.arrRand, meanGap), arrive)
		}
	}
	e.s.After(sim.Exp(e.arrRand, meanGap), arrive)
}

// pickClient routes an arrival to a client, honouring demand skew.
func (e *engine) pickClient() *client {
	cfg := e.cfg
	if cfg.SkewFraction > 0 {
		hot := int(float64(cfg.Clients) * cfg.SkewFraction)
		if hot < 1 {
			hot = 1
		}
		if e.arrRand.Float64() < cfg.SkewDemand {
			return e.clients[e.arrRand.IntN(hot)]
		}
		if hot < cfg.Clients {
			return e.clients[hot+e.arrRand.IntN(cfg.Clients-hot)]
		}
		return e.clients[e.arrRand.IntN(cfg.Clients)]
	}
	return e.clients[e.arrRand.IntN(cfg.Clients)]
}

// inject creates one request at a client and submits it to the replica-group
// scheduler (Algorithm 1: dispatch now or backpressure).
func (e *engine) inject() {
	cl := e.pickClient()
	g := e.arrRand.IntN(len(e.groups))
	req := &request{
		client:  cl,
		group:   g,
		tArrive: e.s.Now(),
		repair:  e.arrRand.Float64() < e.cfg.ReadRepair,
	}
	sched := cl.scheds[g]
	before := sched.Backlog()
	sched.Submit(req, e.s.Now(), e.dispatch)
	if sched.Backlog() > 0 {
		if before == 0 || sched.Backlog() > before {
			e.res.Backpressured++
		}
		e.armWake(cl, g)
	}
}

// armWake schedules a Drain retry for a backlogged group scheduler.
func (e *engine) armWake(cl *client, g int) {
	if cl.waking[g] {
		return
	}
	at, ok := cl.scheds[g].NextRetry(e.s.Now())
	if !ok {
		return
	}
	cl.waking[g] = true
	if at <= e.s.Now() {
		at = e.s.Now() + 1
	}
	e.s.At(at, func() {
		cl.waking[g] = false
		cl.scheds[g].Drain(e.s.Now(), e.dispatch)
		if cl.scheds[g].Backlog() > 0 {
			e.armWake(cl, g)
		}
	})
}

// dispatch sends a request to its selected primary replica, plus the rest of
// the group when read repair fires. The primary send was already recorded by
// Client.Pick inside the scheduler; repair copies are recorded directly.
func (e *engine) dispatch(primary core.ServerID, req *request) {
	now := e.s.Now()
	e.send(&flight{req: req, server: primary, tSent: now, primary: true})
	if req.repair {
		for _, s := range e.groups[req.group] {
			if s == primary {
				continue
			}
			req.client.core.OnSendN(s, 1, now)
			e.send(&flight{req: req, server: s, tSent: now})
		}
	}
}

// send models the client→server network hop.
func (e *engine) send(fl *flight) {
	e.s.AfterDur(e.cfg.NetOneWay, func() { e.serverArrive(fl) })
}

// serverArrive enqueues or starts service for an incoming request.
func (e *engine) serverArrive(fl *flight) {
	sv := e.servers[fl.server]
	if sv.busy < sv.slots {
		e.startService(sv, fl)
		return
	}
	sv.queue = append(sv.queue, fl)
}

// startService begins serving fl on a free slot of sv.
func (e *engine) startService(sv *server, fl *flight) {
	sv.busy++
	d := sim.Exp(sv.rng, sv.mean)
	fl.svc = d
	e.s.After(d, func() { e.completeService(sv, fl) })
}

// completeService frees the slot, samples the queue feedback exactly as the
// paper specifies ("recorded after the request has been serviced and the
// response is about to be dispatched"), responds, and pulls the next job.
func (e *engine) completeService(sv *server, fl *flight) {
	sv.busy--
	sv.svcEst.Add(float64(fl.svc))
	fl.svc = int64(sv.svcEst.Value())
	fl.qlen = sv.qlen()
	e.s.AfterDur(e.cfg.NetOneWay, func() { e.clientReceive(fl) })
	if sv.head < len(sv.queue) {
		next := sv.queue[sv.head]
		sv.queue[sv.head] = nil
		sv.head++
		if sv.head == len(sv.queue) {
			sv.queue = sv.queue[:0]
			sv.head = 0
		} else if sv.head > 256 && sv.head*2 > len(sv.queue) {
			n := copy(sv.queue, sv.queue[sv.head:])
			sv.queue = sv.queue[:n]
			sv.head = 0
		}
		e.startService(sv, next)
	}
}

// clientReceive feeds the response into the client's policy state and
// finalizes measurement for primary responses.
func (e *engine) clientReceive(fl *flight) {
	now := e.s.Now()
	req := fl.req
	fb := core.Feedback{
		QueueSize:   float64(fl.qlen),
		ServiceTime: time.Duration(fl.svc),
	}
	req.client.core.OnResponseN(fl.server, 1, fb, time.Duration(now-fl.tSent), now)
	if !fl.primary {
		return
	}
	e.done++
	e.tLastDone = now
	e.res.PerServer[int(fl.server)]++
	e.res.Sample.Add(float64(now-req.tArrive) / 1e6) // ms
	// A response may have raised srate; give the backlog a chance.
	sched := req.client.scheds[req.group]
	if sched.Backlog() > 0 {
		sched.Drain(now, e.dispatch)
		if sched.Backlog() > 0 {
			e.armWake(req.client, req.group)
		}
	}
}

// Policies lists every selectable policy name.
func Policies() []string {
	return []string{
		PolicyOracle, PolicyC3, PolicyLOR, PolicyRR,
		PolicyC3RankOnly, PolicyRandom, PolicyLRT, PolicyWRand, PolicyTwoChoice,
	}
}
