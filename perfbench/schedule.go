package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	"eel/internal/core"
	"eel/internal/pipe"
	"eel/internal/sparc"
	"eel/internal/spawn"
	"eel/internal/workload"
)

const schedulePath = "/v1/schedule"

// scheduleWorkload posts /v1/schedule requests to the daemon.
//
// rpc-schedule-hot cycles, on two connections, through cmd/eelload's
// default stream shape: 16 distinct requests of 24 integer blocks of
// 4–15 instructions on ultrasparc. The stream is sent once before timing,
// so every timed block hits the schedule cache: time goes to the batch
// window, JSON, HTTP and telemetry replay, not to the scheduler.
//
// rpc-schedule-cold sends, on one connection, requests of 128 blocks of
// 8–39 instructions the run has not sent before, half of them
// floating-point, rotating over the three machines. The scheduler does
// most of the work and the cache only takes misses and inserts.
type scheduleWorkload struct {
	hot     bool
	conns   int
	rng     *rand.Rand
	daemons rpcDaemons
	checker *schedChecker
	reqs    []*schedReq // hot: the distinct requests, in stream order
	canon   [][]byte    // hot: their checked responses
	order   []int       // hot: the order the connections walk reqs in
	sent    int         // cold: requests generated so far
}

type schedReq struct {
	machine spawn.Machine
	blocks  [][]sparc.Inst
	body    []byte
}

// hotStreamSeed is cmd/eelload's default -seed. The hot stream is the
// same in every run, so the cached schedules and their quality are too;
// the run seed orders the stream.
const hotStreamSeed = 1

func newScheduleHot(seed int64) driver {
	return &scheduleWorkload{hot: true, conns: 2, rng: rand.New(rand.NewSource(seed))}
}

func newScheduleCold(seed int64) driver {
	return &scheduleWorkload{conns: 1, rng: rand.New(rand.NewSource(seed))}
}

// newSchedReq draws one request body from the workload generator's
// random blocks.
func newSchedReq(rng *rand.Rand, m spawn.Machine, blocks, minLen, spread int, fpEvery int) (*schedReq, error) {
	r := &schedReq{machine: m, blocks: make([][]sparc.Inst, blocks)}
	words := make([][]uint32, blocks)
	for i := range r.blocks {
		fp := fpEvery > 0 && i%fpEvery == fpEvery-1
		r.blocks[i] = workload.RandomBlock(rng, minLen+rng.Intn(spread), fp)
		words[i] = make([]uint32, len(r.blocks[i]))
		for j, inst := range r.blocks[i] {
			w, err := sparc.Encode(inst)
			if err != nil {
				return nil, err
			}
			words[i][j] = w
		}
	}
	body, err := json.Marshal(map[string]any{"machine": m, "blocks": words})
	if err != nil {
		return nil, err
	}
	r.body = body
	return r, nil
}

// coldReq is the next never-sent cold request; machines rotate.
func (w *scheduleWorkload) coldReq() (*schedReq, error) {
	m := spawn.Machines()[w.sent%len(spawn.Machines())]
	w.sent++
	return newSchedReq(w.rng, m, 128, 8, 32, 2)
}

func (w *scheduleWorkload) setup(traced bool, l *setupLayers) (time.Duration, error) {
	var harness time.Duration
	machines := spawn.Machines()
	if w.hot {
		machines = []spawn.Machine{spawn.UltraSPARC}
		t0 := time.Now()
		stream := rand.New(rand.NewSource(hotStreamSeed))
		for i := 0; i < 16; i++ {
			r, err := newSchedReq(stream, spawn.UltraSPARC, 24, 4, 12, 0)
			if err != nil {
				return 0, err
			}
			w.reqs = append(w.reqs, r)
		}
		w.order = w.rng.Perm(len(w.reqs))
		harness += time.Since(t0)
	}
	models := make(map[spawn.Machine]*spawn.Model)
	for _, m := range machines {
		err := l.time(&l.spawnLoad, func() (err error) {
			models[m], err = spawn.Load(m)
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	w.checker = newSchedChecker(models)
	if err := w.daemons.boot(traced, w.conns, l); err != nil {
		return 0, err
	}

	// Warm-up: hot sends its whole stream, so the timed run only hits;
	// cold sends one request per machine, so models and batchers exist.
	for _, d := range w.daemons.each() {
		if w.hot {
			for i, r := range w.reqs {
				body, err := d.post(schedulePath, r.body)
				if err != nil {
					return 0, fmt.Errorf("warm-up: %w", err)
				}
				t0 := time.Now()
				if w.canon == nil || len(w.canon) <= i {
					if err := w.checker.check(r, body); err != nil {
						return 0, fmt.Errorf("warm-up response %d: %w", i, err)
					}
					w.canon = append(w.canon, body)
				} else if !bytes.Equal(body, w.canon[i]) {
					return 0, fmt.Errorf("warm-up response %d differs between daemons", i)
				}
				harness += time.Since(t0)
			}
			continue
		}
		for range spawn.Machines() {
			t0 := time.Now()
			r, err := w.coldReq()
			harness += time.Since(t0)
			if err != nil {
				return 0, err
			}
			if _, err := d.post(schedulePath, r.body); err != nil {
				return 0, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return harness, nil
}

func (w *scheduleWorkload) segment(traced bool, budget time.Duration) (*runStats, error) {
	if w.hot {
		return w.hotSegment(traced, budget), nil
	}
	d := w.daemons.pick(traced)
	st := &runStats{}
	start := time.Now()
	for st.wall < budget {
		r, err := w.coldReq()
		if err != nil {
			return nil, err
		}
		var body []byte
		if st.timeOp(func() bool {
			body, err = d.post(schedulePath, r.body)
			return err == nil
		}) {
			if err = w.checker.check(r, body); err != nil {
				st.failed++
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
		}
	}
	if traced {
		st.traces = d.tracesIn(start, time.Now())
	}
	return st, nil
}

// hotSegment runs the hot stream on w.conns closed-loop callers. Each
// response must be byte-identical to the checked warm-up response for
// the same request.
func (w *scheduleWorkload) hotSegment(traced bool, budget time.Duration) *runStats {
	d := w.daemons.pick(traced)
	st := &runStats{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	c0 := cpuNow()
	deadline := start.Add(budget)
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			var lats []time.Duration
			failed := 0
			for i := first; time.Now().Before(deadline); i++ {
				k := w.order[i%len(w.order)]
				t0 := time.Now()
				body, err := d.post(schedulePath, w.reqs[k].body)
				lats = append(lats, time.Since(t0))
				if err == nil && !bytes.Equal(body, w.canon[k]) {
					err = fmt.Errorf("response to request %d differs from its checked response", k)
				}
				if err != nil {
					failed++
					fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
				}
			}
			mu.Lock()
			st.lats = append(st.lats, lats...)
			st.failed += failed
			mu.Unlock()
		}(c * len(w.reqs) / w.conns)
	}
	wg.Wait()
	st.wall = time.Since(start)
	st.cpu = cpuNow() - c0
	st.ops = len(st.lats)
	if traced {
		st.traces = d.tracesIn(start, time.Now())
	}
	return st
}

func (w *scheduleWorkload) check(*runStats) error { return nil }

func (w *scheduleWorkload) quality() (float64, float64) { return w.checker.quality() }

func (w *scheduleWorkload) layers(l *layerAcc) { l.schedCalls = l.batches }

func (w *scheduleWorkload) close() error {
	if w.checker != nil {
		w.checker.close()
	}
	return w.daemons.close()
}

// schedChecker verifies /v1/schedule responses and accumulates the
// quality of the schedules it has verified.
type schedChecker struct {
	scheds map[spawn.Machine]*core.Scheduler
	oracle map[spawn.Machine]*pipe.FastState
	// stall cycles before and after scheduling, and the log of the
	// scheduled/original cycle ratio, over every verified block
	stallsOrig, stallsSched int64
	logRatio                float64
	blocks                  int
}

func newSchedChecker(models map[spawn.Machine]*spawn.Model) *schedChecker {
	c := &schedChecker{
		scheds: make(map[spawn.Machine]*core.Scheduler),
		oracle: make(map[spawn.Machine]*pipe.FastState),
	}
	for m, model := range models {
		c.scheds[m] = core.New(model, core.Options{Workers: 1})
		c.oracle[m] = pipe.NewFastState(model)
	}
	return c
}

func (c *schedChecker) close() {
	for _, s := range c.scheds {
		s.Close()
	}
}

// check verifies that body answers req: same machine and block count,
// and every block a legal reordering of its request block
// (core.Scheduler.VerifyDependences). The verified blocks count toward
// the schedule-quality metrics.
func (c *schedChecker) check(req *schedReq, body []byte) error {
	var resp struct {
		Machine string     `json:"machine"`
		Blocks  [][]uint32 `json:"blocks"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if resp.Machine != string(req.machine) {
		return fmt.Errorf("response machine %q, want %q", resp.Machine, req.machine)
	}
	if len(resp.Blocks) != len(req.blocks) {
		return fmt.Errorf("response has %d blocks, want %d", len(resp.Blocks), len(req.blocks))
	}
	sched := c.scheds[req.machine]
	out := make([][]sparc.Inst, len(resp.Blocks))
	for i, words := range resp.Blocks {
		insts, err := sparc.DecodeAll(words)
		if err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}
		if err := sched.VerifyDependences(req.blocks[i], insts); err != nil {
			return fmt.Errorf("block %d: %w", i, err)
		}
		out[i] = insts
	}
	for i := range out {
		stallsBefore, before, err := c.cost(req.machine, req.blocks[i])
		if err != nil {
			return err
		}
		stallsAfter, after, err := c.cost(req.machine, out[i])
		if err != nil {
			return err
		}
		c.stallsOrig += stallsBefore
		c.stallsSched += stallsAfter
		c.logRatio += math.Log(float64(after) / float64(before))
		c.blocks++
	}
	return nil
}

// cost is the block's stall cycles and its cycles to completion from an
// empty pipeline, as the scheduler's own oracle prices them.
func (c *schedChecker) cost(m spawn.Machine, block []sparc.Inst) (stalls, cycles int64, err error) {
	st := c.oracle[m]
	st.Reset()
	for _, inst := range block {
		g, err := st.Model().GroupOf(inst)
		if err != nil {
			return 0, 0, err
		}
		s, issue, err := st.Issue(inst)
		if err != nil {
			return 0, 0, err
		}
		stalls += int64(s)
		cycles = max(cycles, issue+int64(g.Cycles))
	}
	return stalls, cycles, nil
}

// quality is the share of the request blocks' stall cycles that
// scheduling hid, and the geometric mean of scheduled over original
// block cycles.
func (c *schedChecker) quality() (float64, float64) {
	if c.blocks == 0 {
		return 0, 0
	}
	return div(100*float64(c.stallsOrig-c.stallsSched), float64(c.stallsOrig)),
		math.Exp(c.logRatio / float64(c.blocks))
}
