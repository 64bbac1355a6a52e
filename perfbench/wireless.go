package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/programs"
	"repro/internal/wireless"
)

// wireless-grid: one batch clustered round per op — wireless.RunClusterWaves
// on the 200-node, 355-link grid with two epoch workers, batched deltas and
// two rollup-aggregated shards. Every round grounds every node cold, so
// this is the workload where grounding, GC, per-node compile, the epoch
// barrier and transport batching show.

const (
	wirelessW, wirelessH = 20, 10
	wirelessShards       = 2
	wirelessSetupRuns    = 31
)

func wirelessParams(seed int64) wireless.Params {
	p := wireless.ScaledGridParams(wirelessW, wirelessH)
	p.Seed = seed
	return p
}

func wirelessOptions(workers int, o *epochObserver) cluster.Options {
	return cluster.Options{
		Workers:     workers,
		BatchDeltas: true,
		Shards:      wireless.GridShardPlan(wirelessW, wirelessShards),
		Aggregation: cluster.AggregationRollup,
		AfterEpoch:  o.hook,
	}
}

// wirelessDecisions is a round's output: residual interference, the
// throughput series, and every link's channel.
func wirelessDecisions(res *wireless.Result, rt *cluster.Runtime) string {
	var links []string
	for _, addr := range rt.Addrs() {
		n := rt.Node(addr)
		if n == nil {
			continue
		}
		for _, row := range n.Rows("assign") {
			if row[0].S == addr {
				links = append(links, fmt.Sprintf("%s-%s:%d", row[0].S, row[1].S, row[2].I))
			}
		}
	}
	sort.Strings(links)
	return fmt.Sprintf("interference=%d throughput=%v channels=%s",
		res.Interference, res.ThroughputMbps, strings.Join(links, ","))
}

func runWireless(cfg config) (*outcome, error) {
	p := wirelessParams(cfg.seed)
	out := &outcome{tail: 0.9}

	// The decision reference is an unsharded, unbatched, sequential round.
	refObs := newEpochObserver(nil, 0)
	refRes, err := wireless.RunClusterWaves(p, cluster.Options{Workers: 1, AfterEpoch: refObs.hook})
	if err != nil {
		return nil, fmt.Errorf("reference round: %w", err)
	}
	wantDecisions := wirelessDecisions(refRes, refObs.rt)

	type roundOut struct {
		lat       time.Duration
		obs       *epochObserver
		decisions string
		tot       epochTotals
		// harnessCPU is what reading the decisions and counts cost.
		harnessCPU time.Duration
	}
	round := func(tr *tracer, op int) (roundOut, error) {
		r := roundOut{obs: newEpochObserver(tr, op)}
		r.obs.scenario = tr.begin("scenario", op, -1)
		r.obs.start = time.Now()
		res, err := wireless.RunClusterWaves(p, wirelessOptions(cfg.workers, r.obs))
		r.lat = time.Since(r.obs.start)
		tr.finish(r.obs.scenario)
		if err != nil {
			return r, err
		}
		t := cpuTime()
		r.decisions, r.tot = wirelessDecisions(res, r.obs.rt), foldHistory(r.obs.rt.History())
		r.harnessCPU = cpuTime() - t
		return r, nil
	}

	// The work reference is the first round with the benchmark's options;
	// it also warms the heap and caches before timing starts.
	ref, err := round(nil, 0)
	if err != nil {
		return nil, fmt.Errorf("work reference round: %w", err)
	}
	if ref.decisions != wantDecisions {
		out.incorrect = append(out.incorrect, "wireless-grid: sharded batched round decided differently from the sequential reference")
	}
	ref.obs = nil // the window's heap should not hold its cluster

	setup := &setupSampler{want: wirelessSetupRuns, build: func() (time.Duration, error) {
		o := newEpochObserver(nil, 0)
		o.stopAtFirst = true
		o.start = time.Now()
		_, err := wireless.RunClusterWaves(p, wirelessOptions(cfg.workers, o))
		if o.firstDecision.IsZero() {
			return 0, fmt.Errorf("round stopped before its first decision: %v", err)
		}
		return o.firstDecision.Sub(o.start), nil
	}}
	timed := func(tr *tracer) *opsWindow {
		var layers clusterLayers
		w := backToBack(cfg.window, tr, func(w *opsWindow, op int) {
			opTr := tr.forOp(op)
			r, err := round(opTr, op)
			w.harnessCPU += r.harnessCPU
			w.attempted++
			w.record(r.lat, opTr != nil)
			switch {
			case err != nil:
				w.fail(1, "wireless-grid round %d: %v", op, err)
				return
			case r.decisions != wantDecisions:
				out.incorrect = append(out.incorrect, fmt.Sprintf("wireless-grid round %d: decisions differ from the reference", op))
				w.fail(1, "wireless-grid round %d: decisions differ from the reference", op)
			default:
				if d := r.tot.work.diff(ref.tot.work); len(d) > 0 {
					w.fail(1, "wireless-grid round %d did different work: %s", op, strings.Join(d, ", "))
				}
			}
			layers.add(r.obs, r.tot)
		})
		w.layer = layers.metrics()
		return w
	}
	if cfg.trace {
		out.window = timed(&tracer{t0: time.Now()})
		out.static, err = compileTimes(programs.WirelessDistributed(p.FMindiff, p.TwoHopCost), 21)
		return out, err
	}
	if err := setup.takeHalf(); err != nil {
		return nil, err
	}
	out.window = timed(nil)
	out.setupS, err = setup.finish()
	return out, err
}
