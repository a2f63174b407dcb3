package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"eel/internal/eel"
	"eel/internal/exe"
	"eel/internal/qpt"
	"eel/internal/sim"
	"eel/internal/spawn"
	"eel/internal/workload"
)

const (
	// editImages is more than the daemon's 32-entry editor LRU, so
	// round-robin requests always miss it and every op decodes the image
	// and builds its CFG again.
	editImages = 64
	editInsts  = 8192
	editPath   = "/v1/edit?op=instrument&machine=ultrasparc"
)

// editWorkload posts /v1/edit?op=instrument (instrument and schedule) on
// one connection, round-robin over distinct generated images. It is the
// workload where decode, CFG, instrumentation, layout, marshalling and
// the editor LRU do most of the work; it bypasses the batcher.
type editWorkload struct {
	rng     *rand.Rand
	daemons rpcDaemons
	model   *spawn.Model
	images  []*exe.Exe
	bodies  [][]byte
	canon   [][]byte // the first response per image
	served  []int    // ops whose response matched canon, per image
	order   []int    // round-robin order over the images
	next    [2]int   // round-robin cursor per daemon: untraced, traced

	hidden, ratio float64
}

func newEdit(seed int64) driver {
	return &editWorkload{rng: rand.New(rand.NewSource(seed))}
}

func (w *editWorkload) setup(traced bool, l *setupLayers) (time.Duration, error) {
	err := l.time(&l.spawnLoad, func() (err error) {
		w.model, err = spawn.Load(spawn.UltraSPARC)
		return err
	})
	if err != nil {
		return 0, err
	}
	var harness time.Duration
	// The images are the same in every run, so the work per pass and
	// the schedule quality are too; the run seed orders the round robin.
	// They cover the suite evenly, image k generated with seed k.
	suite := workload.Suite(spawn.UltraSPARC)
	seen := make(map[string]bool)
	for k := int64(0); len(w.images) < editImages; k++ {
		b := suite[len(w.images)%len(suite)]
		cfg := workload.Config{
			Machine:         spawn.UltraSPARC,
			DynamicInsts:    editInsts,
			Seed:            k,
			SkipCalibration: true,
		}
		var x *exe.Exe
		if err := l.time(&l.generate, func() (err error) {
			x, err = workload.Generate(b, cfg)
			return err
		}); err != nil {
			return 0, err
		}
		t0 := time.Now()
		body := x.Marshal()
		harness += time.Since(t0)
		if seen[string(body)] {
			continue
		}
		seen[string(body)] = true
		w.images = append(w.images, x)
		w.bodies = append(w.bodies, body)
	}
	w.order = w.rng.Perm(editImages)
	w.canon = make([][]byte, editImages)
	w.served = make([]int, editImages)
	if err := w.daemons.boot(traced, 1, l); err != nil {
		return 0, err
	}
	// Warm-up: every image once, in the timed round-robin order, which
	// fills the schedule cache and leaves in the editor LRU exactly the
	// images the round robin reaches last.
	for _, d := range w.daemons.each() {
		for _, k := range w.order {
			out, err := d.post(editPath, w.bodies[k])
			if err != nil {
				return 0, fmt.Errorf("warm-up image %d: %w", k, err)
			}
			if w.canon[k] == nil {
				w.canon[k] = out
			} else if !bytes.Equal(out, w.canon[k]) {
				return 0, fmt.Errorf("warm-up image %d: responses differ between daemons", k)
			}
		}
	}
	return harness, nil
}

func (w *editWorkload) segment(traced bool, budget time.Duration) (*runStats, error) {
	d := w.daemons.pick(traced)
	next := &w.next[0]
	if traced {
		next = &w.next[1]
	}
	st := &runStats{}
	start := time.Now()
	for st.wall < budget {
		k := w.order[*next%editImages]
		*next++
		var out []byte
		var err error
		if st.timeOp(func() bool {
			out, err = d.post(editPath, w.bodies[k])
			return err == nil
		}) {
			if bytes.Equal(out, w.canon[k]) {
				w.served[k]++
			} else {
				st.failed++
				err = fmt.Errorf("image %d: response differs from the first response", k)
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

// check runs each distinct response under the simulator: it must halt,
// and its profile counters must match block for block those of the same
// image instrumented locally without scheduling. Every op that returned
// a response failing this counts as failed. The same runs give the
// schedule-quality metrics, as in the paper's tables.
func (w *editWorkload) check(st *runStats) error {
	meas := sim.NewMeasurer(w.model, sim.DefaultTiming(spawn.UltraSPARC))
	var errs []error
	var hidden, logRatio float64
	n := 0
	for k := range w.images {
		c, err := w.checkImage(meas, k)
		if err != nil {
			st.failed += w.served[k]
			errs = append(errs, fmt.Errorf("image %d: %w", k, err))
			continue
		}
		if c.inst != c.uninst {
			hidden += 100 * float64(c.inst-c.sched) / float64(c.inst-c.uninst)
		}
		logRatio += math.Log(float64(c.sched) / float64(c.uninst))
		n++
	}
	if n > 0 {
		w.hidden, w.ratio = hidden/float64(n), math.Exp(logRatio/float64(n))
	}
	return errors.Join(errs...)
}

func (w *editWorkload) checkImage(meas *sim.Measurer, k int) (rowCycles, error) {
	var c rowCycles
	var cyc [3]int64 // uninstrumented, instrumented, served
	ed, err := eel.Open(w.images[k])
	if err != nil {
		return c, err
	}
	prof := &qpt.SlowProfiler{}
	inst, err := ed.Edit(prof, eel.Options{})
	ed.Close()
	if err != nil {
		return c, err
	}
	resp, err := exe.Unmarshal(w.canon[k])
	if err != nil {
		return c, fmt.Errorf("response: %w", err)
	}
	maxSteps := uint64(40*editInsts + 1_000_000)
	var counts [2]map[int]uint64
	for i, x := range []*exe.Exe{w.images[k], inst, resp} {
		in, tm, res, err := meas.Run(x, maxSteps)
		if err != nil {
			return c, err
		}
		cycles := tm.Cycles()
		meas.Release(nil, tm)
		if !res.Halted {
			meas.Release(in, nil)
			return c, fmt.Errorf("run %d did not halt", i)
		}
		if i > 0 {
			counts[i-1], err = prof.Counts(in.Mem().Read32)
		}
		meas.Release(in, nil)
		if err != nil {
			return c, err
		}
		cyc[i] = cycles
	}
	c = rowCycles{uninst: cyc[0], inst: cyc[1], sched: cyc[2]}
	for blk, n := range counts[0] {
		if counts[1][blk] != n {
			return c, fmt.Errorf("block %d counts diverge: %d unscheduled vs %d served", blk, n, counts[1][blk])
		}
	}
	return c, nil
}

func (w *editWorkload) quality() (float64, float64) { return w.hidden, w.ratio }

func (w *editWorkload) layers(l *layerAcc) {
	var text int
	for _, x := range w.images {
		text += len(x.Text)
	}
	// The editor LRU's lookup span covers the digest, exe.Unmarshal and
	// eel.OpenShared on a miss; with 64 images round-robin every lookup
	// misses.
	l.openNs = l.spans["editor.lookup"].ns
	l.openInsts = int64(l.editorLookups) * int64(text) / int64(len(w.images))
	l.schedCalls = l.ops // one eel.Edit per request
}

func (w *editWorkload) close() error { return w.daemons.close() }
