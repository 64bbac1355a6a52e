package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/followsun"
	"repro/internal/programs"
)

// followsun-durable: the Follow-the-Sun negotiation on the 64-node ring
// with every node's state in the disk store. After each negotiation round
// an AfterEpoch hook settles the network and then stops and restarts eight
// nodes, which replay their write-ahead logs and resync over the
// transport. An op is one whole negotiation run — spawn, both matching
// rounds and the sixteen restarts — because spawning the durable nodes is
// most of a run's time and is part of what a restart-heavy deployment
// pays. It is the only workload that appends to, replays and re-reads the
// store.

const (
	followsunNodes     = 64
	followsunVictims   = 8
	followsunSetupRuns = 31
)

// storeRoot holds the durable workload's node stores, inside the
// checkout. run.sh mounts a private tmpfs on .bench_build/tmpfs; each op
// gets a fresh directory there, removed as soon as the op is done.
var storeRoot = filepath.Join(".bench_build", "tmpfs", fmt.Sprintf("followsun-%d", os.Getpid()))

func followsunParams(seed int64) followsun.Params {
	p := followsun.RingParams(followsunNodes)
	p.Seed = seed
	return p
}

// restartScript is the fault-injection part of the hook: settle, so no
// migVm event is in flight, then stop and restart each victim.
type restartScript struct {
	seed     int64
	restarts []time.Duration
	tr       *tracer
	op       int
}

func (s *restartScript) after(r *cluster.Runtime, epoch, parent int) error {
	addrs := r.Addrs()
	rng := rand.New(rand.NewSource(s.seed + int64(epoch)))
	victims := rng.Perm(len(addrs))[:followsunVictims]
	sort.Ints(victims)
	for _, v := range victims {
		addr := addrs[v]
		sp := s.tr.begin("settle", s.op, parent)
		r.Settle()
		s.tr.finish(sp)
		sp = s.tr.begin("stop", s.op, parent)
		err := r.StopNode(addr)
		s.tr.finish(sp)
		if err != nil {
			return err
		}
		sp = s.tr.begin("restart", s.op, parent)
		t := time.Now()
		_, err = r.RestartNode(addr)
		s.restarts = append(s.restarts, time.Since(t))
		s.tr.finish(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// followsunOutput is what the correctness check compares against the
// fault-free in-memory run.
func followsunOutput(res *followsun.Result) string {
	return fmt.Sprintf("final_cost=%v migrations=%d solver_nodes=%d", res.FinalCost, res.TotalMigrations, res.SolverNodes)
}

func countFiles(dir string) (int, error) {
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			n++
		}
		return err
	})
	return n, err
}

// onTmpfs reports whether dir lives on a tmpfs mount.
func onTmpfs(dir string) bool {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	return syscall.Statfs(dir, &st) == nil && st.Type == tmpfsMagic
}

func runFollowSun(cfg config) (*outcome, error) {
	p := followsunParams(cfg.seed)
	out := &outcome{tail: 0.9}
	if err := os.MkdirAll(storeRoot, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeRoot)
	out.health = map[string]any{"store_on_tmpfs": onTmpfs(storeRoot)}

	// durable runs one negotiation with its node stores in a fresh
	// directory, which it removes afterwards; files counts the regular
	// files the run left there. o.end marks the end of the negotiation,
	// before the files are counted and removed; cleanupCPU sums the CPU
	// time counting and removing took.
	dirs := 0
	var cleanupCPU time.Duration
	durable := func(o *epochObserver) (res *followsun.Result, files int, err error) {
		dirs++
		dir := filepath.Join(storeRoot, fmt.Sprintf("op%d", dirs))
		defer func() {
			t := cpuTime()
			if rerr := os.RemoveAll(dir); err == nil {
				err = rerr
			}
			cleanupCPU += cpuTime() - t
		}()
		res, err = followsun.RunCluster(p, cluster.Options{
			Workers:    cfg.workers,
			Storage:    "disk",
			StorageDir: dir,
			AfterEpoch: o.hook,
		})
		o.end = time.Now()
		if err != nil {
			return nil, 0, err
		}
		t := cpuTime()
		files, err = countFiles(dir)
		cleanupCPU += cpuTime() - t
		return res, files, err
	}

	plain, err := followsun.RunCluster(p, cluster.Options{Workers: cfg.workers})
	if err != nil {
		return nil, fmt.Errorf("fault-free reference run: %w", err)
	}
	want := followsunOutput(plain)

	type runOut struct {
		lat    time.Duration
		obs    *epochObserver
		script *restartScript
		output string
		files  int
		tot    epochTotals
	}
	run := func(tr *tracer, op int) (runOut, error) {
		r := runOut{obs: newEpochObserver(tr, op), script: &restartScript{seed: cfg.seed, tr: tr, op: op}}
		r.obs.after = r.script.after
		r.obs.scenario = tr.begin("scenario", op, -1)
		r.obs.start = time.Now()
		res, files, err := durable(r.obs)
		r.lat = r.obs.end.Sub(r.obs.start)
		tr.finishAt(r.obs.scenario, r.obs.end)
		if err != nil {
			return r, err
		}
		r.output, r.files, r.tot = followsunOutput(res), files, foldHistory(r.obs.rt.History())
		return r, nil
	}

	// The work reference is the first durable run; it also warms the heap
	// and caches before timing starts.
	ref, err := run(nil, 0)
	if err != nil {
		return nil, fmt.Errorf("work reference run: %w", err)
	}
	if ref.output != want {
		out.incorrect = append(out.incorrect, fmt.Sprintf("followsun-durable: %s, fault-free in-memory run %s", ref.output, want))
	}
	ref.tot.work["store.files"] = int64(ref.files)
	ref.obs = nil // the window's heap should not hold its cluster

	setup := &setupSampler{want: followsunSetupRuns, build: func() (time.Duration, error) {
		o := newEpochObserver(nil, 0)
		o.stopAtFirst = true
		o.start = time.Now()
		_, _, err := durable(o)
		if o.firstDecision.IsZero() {
			return 0, fmt.Errorf("run stopped before its first decision: %v", err)
		}
		return o.firstDecision.Sub(o.start), nil
	}}
	timed := func(tr *tracer) *opsWindow {
		var layers clusterLayers
		var restarts []time.Duration
		w := backToBack(cfg.window, tr, func(w *opsWindow, op int) {
			before := cleanupCPU
			opTr := tr.forOp(op)
			r, err := run(opTr, op)
			w.harnessCPU += cleanupCPU - before
			w.attempted++
			w.record(r.lat, opTr != nil)
			restarts = append(restarts, r.script.restarts...)
			if err != nil {
				w.fail(1, "followsun-durable run %d: %v", op, err)
				return
			}
			r.tot.work["store.files"] = int64(r.files)
			if r.output != want {
				out.incorrect = append(out.incorrect, fmt.Sprintf("followsun-durable run %d: %s, fault-free in-memory run %s", op, r.output, want))
				w.fail(1, "followsun-durable run %d: output differs from the fault-free run", op)
			} else if d := r.tot.work.diff(ref.tot.work); len(d) > 0 {
				w.fail(1, "followsun-durable run %d did different work: %s", op, strings.Join(d, ", "))
			}
			layers.add(r.obs, r.tot)
		})
		w.layer = layers.metrics()
		w.layer["cluster.restart_p50_ms"] = pct(restarts, 0.5)
		w.layer["cluster.restart_p90_ms"] = pct(restarts, 0.9)
		return w
	}
	if cfg.trace {
		out.window = timed(&tracer{t0: time.Now()})
		// RingParams sets no migration cap, which RunCluster compiles as 1<<30.
		out.static, err = compileTimes(programs.FollowSunDistributed(1<<30), 21)
		return out, err
	}
	if err := setup.takeHalf(); err != nil {
		return nil, err
	}
	out.window = timed(nil)
	out.setupS, err = setup.finish()
	return out, err
}
