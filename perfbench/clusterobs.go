package main

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/colog"
	"repro/internal/core"
	"repro/internal/programs"
)

// epochObserver is the AfterEpoch hook of one scenario call. It notes when
// the first epoch started, reads each epoch's EpochStats, picks up every
// solve the epoch ran from the nodes' LastSolveResult, and, when tracing,
// records the epoch span with its exec and barrier children.
type epochObserver struct {
	start  time.Time // scenario call
	end    time.Time // scenario return, where the caller notes it
	epoch0 time.Time // first epoch's start
	rt     *cluster.Runtime

	solves, fullGrounds int
	last                map[string]*core.SolveResult

	// stopAtFirst makes the hook end the scenario at its first decision
	// (set-up measurements); firstDecision is when it got there.
	stopAtFirst   bool
	firstDecision time.Time

	// after, when non-nil, runs inside the hook after the epoch's
	// statistics are read (fault injection); its spans parent to the epoch.
	after func(r *cluster.Runtime, epoch, epochSpan int) error

	tr       *tracer
	op       int
	scenario int // span index of the scenario call
	prevEnd  time.Time
}

func newEpochObserver(tr *tracer, op int) *epochObserver {
	return &epochObserver{tr: tr, op: op, scenario: -1, last: map[string]*core.SolveResult{}}
}

func (o *epochObserver) hook(r *cluster.Runtime, epoch int) error {
	now := time.Now()
	o.rt = r
	h := r.History()
	st := h[len(h)-1]
	execStart := now.Add(-st.ExecWall - st.BarrierWall)
	if epoch == 0 {
		o.epoch0 = execStart
		o.prevEnd = execStart
	}
	// Epoch items are node-disjoint, so each node solved at most once
	// since the last scan.
	for _, addr := range r.Addrs() {
		n := r.Node(addr)
		if n == nil {
			continue
		}
		if res := n.LastSolveResult; res != nil && res != o.last[addr] {
			o.last[addr] = res
			o.solves++
			if res.Ground == nil || res.Ground.Mode == "full" {
				o.fullGrounds++
			}
		}
	}
	if o.stopAtFirst {
		o.firstDecision = now
		return errFirstDecision
	}
	ep := o.tr.add("epoch", o.op, o.scenario, o.prevEnd, now)
	o.tr.add("exec", o.op, ep, execStart, execStart.Add(st.ExecWall))
	o.tr.add("barrier", o.op, ep, now.Add(-st.BarrierWall), now)
	var err error
	if o.after != nil {
		err = o.after(r, epoch, ep)
	}
	o.tr.finish(ep)
	o.prevEnd = time.Now()
	return err
}

// epochTotals folds a scenario call's epoch history into its work counts
// (which must repeat exactly at the same seed) and its wall-time sums.
type epochTotals struct {
	work                                 counts
	exec, barrier, flush, ground, search time.Duration
	resyncBytes                          int64
}

func foldHistory(h []cluster.EpochStats) epochTotals {
	t := epochTotals{work: counts{"cluster.epochs": int64(len(h))}}
	for _, st := range h {
		t.work["solver.nodes"] += st.SolverNodes
		t.work["core.solves"] += int64(st.Solves)
		t.work["cluster.agg_msgs"] += st.AggMsgs
		t.work["transport.msgs"] += st.MsgsSent
		t.work["transport.bytes"] += st.BytesSent
		t.work["core.resync_rows"] += st.ResyncRows
		t.work["store.log_records"] += st.LogRecords
		t.work["store.log_bytes"] += st.LogBytes
		t.exec += st.ExecWall
		t.barrier += st.BarrierWall
		t.flush += st.FlushWall
		t.ground += st.GroundWall
		t.search += st.SolveWall
		t.resyncBytes += st.ResyncBytes
	}
	return t
}

// clusterLayers accumulates the per-op cluster, core, solver and
// transport metrics over a window's ops.
type clusterLayers struct {
	ops                 int
	spawn               time.Duration
	tot                 epochTotals
	solves, fullGrounds int
}

func (c *clusterLayers) add(o *epochObserver, t epochTotals) {
	if c.tot.work == nil {
		c.tot.work = counts{}
	}
	c.ops++
	c.spawn += o.epoch0.Sub(o.start)
	for k, v := range t.work {
		c.tot.work[k] += v
	}
	c.tot.exec += t.exec
	c.tot.barrier += t.barrier
	c.tot.flush += t.flush
	c.tot.ground += t.ground
	c.tot.search += t.search
	c.tot.resyncBytes += t.resyncBytes
	c.solves += o.solves
	c.fullGrounds += o.fullGrounds
}

func (c *clusterLayers) metrics() map[string]float64 {
	n := float64(max(1, c.ops))
	per := func(d time.Duration) float64 { return ms(d) / n }
	m := map[string]float64{
		"cluster.spawn_ms":   per(c.spawn),
		"cluster.exec_ms":    per(c.tot.exec),
		"cluster.barrier_ms": per(c.tot.barrier),
		"cluster.flush_ms":   per(c.tot.flush),
		"core.ground_ms":     per(c.tot.ground),
		"solver.search_ms":   per(c.tot.search),
		"core.resync_bytes":  float64(c.tot.resyncBytes) / n,
	}
	for k, v := range c.tot.work {
		m[k] = float64(v) / n
	}
	if c.tot.exec > 0 {
		m["cluster.parallelism"] = float64(c.tot.ground+c.tot.search) / float64(c.tot.exec)
	}
	if c.solves > 0 {
		m["core.ground_full_pct"] = 100 * float64(c.fullGrounds) / float64(c.solves)
	}
	return m
}

// compileTimes times colog.Parse and analysis.Analyze on a workload's
// program, median of n runs each.
func compileTimes(entry programs.Entry, n int) (map[string]float64, error) {
	parse := make([]time.Duration, n)
	analyze := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		prog, err := colog.Parse(entry.Source)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := analysis.Analyze(prog, entry.Config.Params); err != nil {
			return nil, err
		}
		parse[i], analyze[i] = t1.Sub(t0), time.Since(t1)
	}
	return map[string]float64{"colog.parse_ms": pct(parse, 0.5), "analysis.analyze_ms": pct(analyze, 0.5)}, nil
}
