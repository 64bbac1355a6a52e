package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/acloud"
	"repro/internal/colog"
	"repro/internal/programs"
	"repro/internal/serve"
)

// acloud-serve: paced open-loop serving through acloud.NewServing. Churn
// arrives at a fixed rate; at every tick boundary the benchmark offers each
// event due by then and calls Server.TickOnce, so the batches are fixed by
// the schedule, never by timing. An op is one churn event, timed from when
// it was due to the end of the tick that decided it. Spawns and stops
// change the var table, so every tick re-grounds in full and then spends
// its whole node budget: this workload is search-bound and has no
// transport.

const (
	acloudHosts     = 4
	acloudVMs       = 48
	acloudRate      = 1000 // churn events per second
	acloudPeriod    = 50 * time.Millisecond
	acloudPerTick   = int(acloudRate * acloudPeriod / time.Second)
	acloudLimit     = 4 * acloudPeriod // an event decided later than this failed
	acloudSetupRuns = 61
)

func acloudScenario(seed int64) (*serve.Scenario, error) {
	p := acloud.DefaultServingParams()
	p.Hosts, p.VMs, p.Seed = acloudHosts, acloudVMs, seed
	return acloud.NewServing(p, serve.Config{QueueCap: 512, BatchMax: 256})
}

// tickPlan is the churn due in one tick period: the events and each one's
// due time as an offset from the start of the schedule.
type tickPlan struct {
	events []serve.Event
	due    []time.Duration
}

// servingVM is the churn generator's view of one live VM.
type servingVM struct {
	name     string
	cpu, mem int64
}

// churnGen draws a stationary churn stream: a fifth of the events spawn or
// stop a VM, alternating around the initial population so that the model
// keeps its size however long the window, and the rest are CPU readings
// (keyed replaces). The scenario's own generator grows the population by
// about ten VMs a second, which would make the per-tick cost depend on the
// window length.
type churnGen struct {
	rng    *rand.Rand
	live   []servingVM
	target int
	nextID int
}

// newChurnGen takes over from the scenario's initial population (spawn
// events on vmRaw(Vid, Cpu, Mem)).
func newChurnGen(seed int64, initial []serve.Event) *churnGen {
	g := &churnGen{rng: rand.New(rand.NewSource(seed)), target: len(initial), nextID: len(initial)}
	for _, ev := range initial {
		g.live = append(g.live, servingVM{ev.Vals[0].S, ev.Vals[1].I, ev.Vals[2].I})
	}
	return g
}

func (vm servingVM) event(op serve.Op) serve.Event {
	return serve.Event{Op: op, Pred: "vmRaw", Vals: []colog.Value{colog.StringVal(vm.name), colog.IntVal(vm.cpu), colog.IntVal(vm.mem)}}
}

// draw returns the next n events. A VM already touched in this batch is
// never stopped: the stop would coalesce with the queued reading and
// retract a tuple the engine never saw.
func (g *churnGen) draw(n int) []serve.Event {
	evs := make([]serve.Event, 0, n)
	touched := map[string]bool{}
	for len(evs) < n {
		churn := g.rng.Intn(5) == 0
		if churn && len(g.live) <= g.target {
			vm := servingVM{fmt.Sprintf("vm%d", g.nextID), 25 + g.rng.Int63n(70), 64 + g.rng.Int63n(128)}
			g.nextID++
			g.live = append(g.live, vm)
			touched[vm.name] = true
			evs = append(evs, vm.event(serve.OpInsert))
			continue
		}
		i := g.rng.Intn(len(g.live))
		if churn && !touched[g.live[i].name] {
			evs = append(evs, g.live[i].event(serve.OpDelete))
			g.live[i] = g.live[len(g.live)-1]
			g.live = g.live[:len(g.live)-1]
			continue
		}
		g.live[i].cpu = 25 + g.rng.Int63n(70)
		touched[g.live[i].name] = true
		evs = append(evs, g.live[i].event(serve.OpInsert))
	}
	return evs
}

// acloudSchedule lays out ticks periods of churn. The first tick also
// carries the scenario's initial VM population, due at time zero.
func acloudSchedule(sc *serve.Scenario, seed int64, ticks int) []tickPlan {
	initial := sc.Gen(rand.New(rand.NewSource(seed)), 0)
	g := newChurnGen(seed, initial)
	gap := acloudPeriod / time.Duration(acloudPerTick)
	plans := make([]tickPlan, ticks)
	for k := range plans {
		evs := g.draw(acloudPerTick)
		due := make([]time.Duration, len(evs))
		for j := range evs {
			due[j] = time.Duration(k)*acloudPeriod + time.Duration(j+1)*gap
		}
		if k == 0 {
			evs = append(initial, evs...)
			due = append(make([]time.Duration, len(initial)), due...)
		}
		plans[k] = tickPlan{events: evs, due: due}
	}
	return plans
}

// tickWork is what one tick did; it must repeat exactly at the same seed.
type tickWork struct {
	batch      int
	degraded   bool
	solved     bool
	nodes      int64
	fullGround bool
	objective  float64
	deltas     int
}

func workOf(rep *serve.TickReport) tickWork {
	w := tickWork{batch: len(rep.Batch), degraded: rep.Degraded, solved: rep.Solved, objective: rep.Objective, deltas: len(rep.Deltas)}
	if r := rep.Result; r != nil {
		w.nodes = r.Stats.Nodes
		w.fullGround = r.Ground == nil || r.Ground.Mode == "full"
	}
	return w
}

// servedTick is one tick as the benchmark saw it. It keeps only what the
// checks and metrics need from the TickReport, so that the reports of a
// whole window do not swell the heap being measured.
type servedTick struct {
	batch    []serve.Event // admitted churn, for the shadow replay
	work     tickWork
	solved   bool // the tick ran a solve
	latency  time.Duration
	ground   time.Duration
	search   time.Duration
	traced   bool
	rejected int
	late     time.Duration // how far past its boundary the tick started
	depth    int           // queue depth handed to the tick
	lat      []time.Duration
}

// serveSchedule drives plans through sc. Paced, it waits for each tick
// boundary and times every event from its due time; unpaced, it ticks
// back to back (the work reference).
func serveSchedule(sc *serve.Scenario, plans []tickPlan, paced bool, tr *tracer) ([]servedTick, error) {
	out := make([]servedTick, len(plans))
	t0 := time.Now()
	for k, pl := range plans {
		st := &out[k]
		ktr := tr.forOp(k)
		st.traced = ktr != nil
		boundary := t0.Add(time.Duration(k+1) * acloudPeriod)
		if paced {
			if d := time.Until(boundary); d > 0 {
				time.Sleep(d)
			}
			st.late = time.Since(boundary)
		}
		for _, ev := range pl.events {
			s := ktr.begin("offer", k, -1)
			err := sc.Server.Offer(ev)
			ktr.finish(s)
			if err != nil {
				st.rejected++
			}
		}
		st.depth = sc.Server.QueueDepth()
		s := ktr.begin("tick", k, -1)
		rep, err := sc.Server.TickOnce()
		end := time.Now()
		ktr.finish(s)
		if err != nil {
			return nil, fmt.Errorf("tick %d: %w", k, err)
		}
		st.batch, st.work, st.latency = rep.Batch, workOf(rep), rep.Latency
		if r := rep.Result; r != nil {
			st.solved, st.ground, st.search = true, r.GroundWall, r.Stats.Elapsed
		}
		if r := rep.Result; r != nil && s >= 0 {
			// Only the durations of grounding and search are known; placed
			// back to back at the end of the tick, they leave the tick's
			// self time exact.
			searchStart := end.Add(-r.Stats.Elapsed)
			ktr.add("search", k, s, searchStart, end)
			ktr.add("ground", k, s, searchStart.Add(-r.GroundWall), searchStart)
		}
		if paced {
			st.lat = make([]time.Duration, len(pl.due))
			for i, due := range pl.due {
				st.lat[i] = end.Sub(t0.Add(due))
			}
		}
	}
	return out, nil
}

func runACloud(cfg config) (*outcome, error) {
	out := &outcome{tail: 0.99}
	ticks := int(cfg.window / acloudPeriod)

	// The work reference serves the same schedule back to back; it also
	// warms the heap and caches before timing starts.
	refSc, err := acloudScenario(cfg.seed)
	if err != nil {
		return nil, err
	}
	refTicks, err := serveSchedule(refSc, acloudSchedule(refSc, cfg.seed, ticks), false, nil)
	if err != nil {
		return nil, fmt.Errorf("reference schedule: %w", err)
	}
	ref := make([]tickWork, len(refTicks))
	for k, st := range refTicks {
		ref[k] = st.work
	}
	refCoalesced := refSc.Server.StatsSnapshot().EventsCoalesced

	setup := &setupSampler{want: acloudSetupRuns, build: func() (time.Duration, error) {
		start := time.Now()
		sc, err := acloudScenario(cfg.seed)
		if err != nil {
			return 0, err
		}
		if _, err := serveSchedule(sc, acloudSchedule(sc, cfg.seed, 1), false, nil); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}}

	timed := func(tr *tracer) (*opsWindow, error) {
		s := tr.begin("scenario", -1, -1)
		sc, err := acloudScenario(cfg.seed)
		tr.finish(s)
		if err != nil {
			return nil, err
		}
		plans := acloudSchedule(sc, cfg.seed, ticks)
		w := &opsWindow{spans: tr}
		resetPeakRSS()
		start := readUsage()
		served, err := serveSchedule(sc, plans, true, tr)
		if err != nil {
			return nil, err
		}
		w.use = readUsage().since(start)

		var tickLat, other []time.Duration
		var ground, search time.Duration
		var nodes int64
		var solves, full, rejected, degraded, depthMax int
		var lateMax time.Duration
		for k, st := range served {
			n := len(st.lat)
			w.attempted += n
			for _, l := range st.lat {
				w.record(l, st.traced)
			}
			tickLat = append(tickLat, st.latency)
			if st.solved {
				solves++
				ground += st.ground
				search += st.search
				nodes += st.work.nodes
				if st.work.fullGround {
					full++
				}
				other = append(other, st.latency-st.ground-st.search)
			}
			rejected += st.rejected
			depthMax = max(depthMax, st.depth)
			lateMax = max(lateMax, st.late)
			switch {
			case st.rejected > 0:
				w.fail(n, "acloud-serve tick %d: %d events refused", k, st.rejected)
			case st.work.degraded:
				degraded++
				w.fail(n, "acloud-serve tick %d degraded", k)
			case st.work != ref[k]:
				w.fail(n, "acloud-serve tick %d did different work: %+v (reference %+v)", k, st.work, ref[k])
			default:
				slow := 0
				for _, l := range st.lat {
					if l > acloudLimit {
						slow++
					}
				}
				if slow > 0 {
					w.fail(slow, "acloud-serve tick %d: %d events decided after %v", k, slow, acloudLimit)
				}
			}
		}
		stats := sc.Server.StatsSnapshot()
		if stats.Ticks != len(ref) || stats.EventsCoalesced != refCoalesced {
			w.fail(w.attempted-w.failed, "acloud-serve did different work: %d ticks, %d coalesced (reference %d, %d)",
				stats.Ticks, stats.EventsCoalesced, len(ref), refCoalesced)
		}

		// Replay the published tick reports through the batch reference and
		// require byte-identical state, objective and solver trace.
		for k, st := range served {
			if err := sc.ShadowApply(&serve.TickReport{Batch: st.batch, Degraded: st.work.degraded}); err != nil {
				return nil, fmt.Errorf("shadow replay of tick %d: %w", k, err)
			}
		}
		if err := sc.VerifyEquivalent(); err != nil {
			out.incorrect = append(out.incorrect, err.Error())
		}

		ops := float64(max(1, w.attempted))
		w.layer = map[string]float64{
			"core.ground_ms":        ms(ground) / ops,
			"solver.search_ms":      ms(search) / ops,
			"solver.nodes":          float64(nodes) / ops,
			"core.solves":           float64(solves) / ops,
			"core.tick_other_ms":    pct(other, 0.5),
			"serve.tick_p50_ms":     pct(tickLat, 0.5),
			"serve.tick_p99_ms":     pct(tickLat, 0.99),
			"serve.ticks":           float64(stats.Ticks),
			"serve.coalesced_pct":   100 * float64(stats.EventsCoalesced) / ops,
			"serve.rejected":        float64(rejected),
			"serve.degraded_ticks":  float64(degraded),
			"serve.queue_depth_max": float64(depthMax),
			"serve.gen_late_max_ms": ms(lateMax),
		}
		if solves > 0 {
			w.layer["core.ground_full_pct"] = 100 * float64(full) / float64(solves)
		}
		return w, nil
	}
	if cfg.trace {
		if out.window, err = timed(&tracer{t0: time.Now()}); err != nil {
			return nil, err
		}
		out.static, err = compileTimes(programs.ACloud(false, 0), 21)
		return out, err
	}
	if err := setup.takeHalf(); err != nil {
		return nil, err
	}
	if out.window, err = timed(nil); err != nil {
		return nil, err
	}
	out.setupS, err = setup.finish()
	return out, err
}
