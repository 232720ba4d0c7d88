package serve

import (
	"fmt"
	"sync"

	"rowhammer/internal/data"
	"rowhammer/internal/defense"
	"rowhammer/internal/metrics"
	"rowhammer/internal/quant"
	"rowhammer/internal/splitmix"
	"rowhammer/internal/tensor"
)

// FireConfig parameterizes the victim-under-fire measurement.
type FireConfig struct {
	// Seed fixes the DeepDyve replay stream and the simulated arrival
	// streams.
	Seed int64
	// ReplayQueries is the detector replay volume per window (default
	// 256): a seeded stream of clean and trigger-stamped queries run
	// through the DeepDyve protocol, from which the alarm rate and the
	// detection lag are measured.
	ReplayQueries int
	// TriggerFraction is the fraction of replay queries carrying the
	// trigger (default 0.5) — the attacker exercising the backdoor
	// while ordinary traffic continues.
	TriggerFraction float64
	// Sim is the per-window virtual load model; Seed is derived per
	// window from FireConfig.Seed.
	Sim SimConfig
	// LiveClients, when > 0, drives that many real blocking request
	// loops through the server for the whole run — the wall-clock
	// numbers land in LiveSnapshot, never in the report. Ignored when
	// the server is degraded (a serialized engine cannot take
	// measurement and traffic concurrently).
	LiveClients int
}

const (
	// detectThreshold is the alarm-rate excess over the pre-attack
	// baseline that counts as detection.
	detectThreshold = 0.05
	// swapStallNs is the virtual executor stall charged per hot-swap
	// publish in a window's load simulation: the full-file repack pause.
	swapStallNs = 2_000_000
)

func (c FireConfig) withDefaults() FireConfig {
	if c.ReplayQueries <= 0 {
		c.ReplayQueries = 256
	}
	if c.TriggerFraction <= 0 {
		c.TriggerFraction = 0.5
	}
	return c
}

// WindowStats is one measurement window of the attack×load×detection
// timeline: window 0 is the pre-attack baseline, window k the state
// after hammer round k.
type WindowStats struct {
	Window int
	// Round is the attack round that closed this window (0 = baseline).
	Round int
	// FlipsApplied is the Hamming distance between the serving engine's
	// current codes and the clean deployment, in bits.
	FlipsApplied int
	// EpochSeq is the engine's published epoch at measurement time.
	EpochSeq uint64
	// TA and ASR are the victim's live test accuracy and attack success
	// rate at this point of the attack.
	TA, ASR float64
	// AlarmRate is the DeepDyve disagreement rate over this window's
	// replay stream.
	AlarmRate float64
	// SimQPS, SimP50Ns, SimP99Ns, SimShed and SimMeanBatch are the
	// window's virtual-time service quality (see Simulate).
	SimQPS       float64
	SimP50Ns     int64
	SimP99Ns     int64
	SimShed      int
	SimMeanBatch float64
}

// ServeReport is the deterministic attack-under-load timeline.
type ServeReport struct {
	// Degraded records whether the victim served through the serialized
	// fallback executor.
	Degraded bool
	Windows  []WindowStats
	// BaselineAlarmRate is window 0's replay alarm rate — DeepDyve's
	// false-positive floor on this victim/checker pair.
	BaselineAlarmRate float64
	// Detected is true when some post-attack window's alarm rate
	// exceeded the baseline by detectThreshold.
	Detected bool
	// DetectionWindow is the first such window (-1 when undetected).
	DetectionWindow int
	// DetectionLagQueries counts replay queries from the first hammer
	// round until the close of the detection window (-1 when
	// undetected) — the paper-style time-to-detection in queries.
	DetectionLagQueries int
}

// Fire wires a serving victim to an attack.
type Fire struct {
	// Engine is the serving engine; its bound quantizer holds the clean
	// deployed weights.
	Engine *quant.QModel
	// Checker is the DeepDyve verification model.
	Checker metrics.Predictor
	// Eval is the held-out evaluation set feeding TA/ASR and the replay
	// stream.
	Eval *data.Dataset
	// Trigger and Target describe the implanted backdoor.
	Trigger *data.Trigger
	Target  int
	// Serve configures the server; Cfg the measurement.
	Serve Config
	Cfg   FireConfig
}

// RunUnderFire serves the engine while attack runs. The attack function
// receives an apply callback and calls it once per hammer round with
// the weight file as the victim's page cache then serves it; apply
// hot-swaps those bytes into the live engine and closes a measurement
// window. The returned report is deterministic for a fixed seed at any
// worker count; the LiveSnapshot carries the wall-clock traffic
// numbers.
func RunUnderFire(f Fire, attack func(apply func(round int, mapped []byte)) error) (*ServeReport, LiveSnapshot, error) {
	cfg := f.Cfg.withDefaults()
	if f.Eval == nil || f.Eval.Len() == 0 {
		return nil, LiveSnapshot{}, fmt.Errorf("serve: Fire.Eval is required")
	}
	if len(f.Serve.Shape) == 0 {
		c, h, w := f.Eval.ImageSize()
		f.Serve.Shape = []int{c, h, w}
	}
	srv, err := NewServer(f.Engine, f.Serve)
	if err != nil {
		return nil, LiveSnapshot{}, err
	}

	q := f.Engine.Quantizer()
	cleanCodes := append([]int8(nil), q.CodesView()...)
	ev := metrics.NewEvaluator(f.Engine)
	dd := &defense.DeepDyve{Main: f.Engine, Checker: f.Checker}
	rng := splitmix.Stream(uint64(cfg.Seed)*splitmix.Gamma + 0x1234567)

	rep := &ServeReport{Degraded: srv.Degraded(), DetectionWindow: -1, DetectionLagQueries: -1}

	measure := func(window, round, swaps int) WindowStats {
		w := WindowStats{
			Window:       window,
			Round:        round,
			FlipsApplied: quant.HammingDistance(cleanCodes, q.CodesView()),
			TA:           ev.TestAccuracy(f.Eval),
			AlarmRate:    replayAlarmRate(dd, f.Eval, f.Trigger, &rng, cfg),
		}
		if f.Trigger != nil {
			w.ASR = ev.AttackSuccessRate(f.Eval, f.Trigger, f.Target)
		}
		w.EpochSeq = f.Engine.EpochSeq()
		sim := cfg.Sim
		sim.Seed = cfg.Seed + int64(window)*7919
		sim.StallNs = int64(swaps) * swapStallNs
		sr := Simulate(sim)
		w.SimQPS = sr.QPS
		w.SimP50Ns = sr.P50Ns
		w.SimP99Ns = sr.P99Ns
		w.SimShed = sr.Shed
		w.SimMeanBatch = sr.MeanBatch
		return w
	}

	// Live traffic: blocking request loops for the duration of the run.
	stop := make(chan struct{})
	var clients sync.WaitGroup
	if cfg.LiveClients > 0 && !srv.Degraded() {
		for g := 0; g < cfg.LiveClients; g++ {
			clients.Add(1)
			go func(g int) {
				defer clients.Done()
				i := g
				for {
					select {
					case <-stop:
						return
					default:
					}
					srv.Submit(f.Eval.Image(i % f.Eval.Len()))
					i++
				}
			}(g)
		}
	}

	// Window 0: the intact victim under load.
	rep.Windows = append(rep.Windows, measure(0, 0, 0))

	apply := func(round int, mapped []byte) {
		if err := srv.Swap(func() { q.LoadWeightFileBytes(mapped) }); err != nil {
			panic(err) // Swap cannot fail on the engine types Fire accepts
		}
		rep.Windows = append(rep.Windows, measure(len(rep.Windows), round, 1))
	}
	attackErr := attack(apply)

	close(stop)
	clients.Wait()
	srv.Close()
	live := srv.Stats().Snapshot()
	if attackErr != nil {
		return nil, live, attackErr
	}

	rep.BaselineAlarmRate = rep.Windows[0].AlarmRate
	for _, w := range rep.Windows[1:] {
		if w.AlarmRate > rep.BaselineAlarmRate+detectThreshold {
			rep.Detected = true
			rep.DetectionWindow = w.Window
			rep.DetectionLagQueries = w.Window * cfg.ReplayQueries
			break
		}
	}
	return rep, live, nil
}

// replayAlarmRate runs one window's worth of the seeded replay stream
// through the DeepDyve protocol: each query picks a sample and a coin
// for whether it carries the trigger; alarms are checker disagreements.
// The stream state (rng) persists across windows, so the sequence of
// queries is one continuous deterministic request log.
func replayAlarmRate(dd *defense.DeepDyve, eval *data.Dataset, trigger *data.Trigger, rng *splitmix.Stream, cfg FireConfig) float64 {
	c, h, w := eval.ImageSize()
	sample := c * h * w
	alarms := 0
	for done := 0; done < cfg.ReplayQueries; {
		chunk := 64
		if cfg.ReplayQueries-done < chunk {
			chunk = cfg.ReplayQueries - done
		}
		var clean, triggered []int
		for i := 0; i < chunk; i++ {
			idx := int(rng.Next() % uint64(eval.Len()))
			if trigger != nil && rng.Float64() < cfg.TriggerFraction {
				triggered = append(triggered, idx)
			} else {
				clean = append(clean, idx)
			}
		}
		run := func(idxs []int, stamp bool) {
			if len(idxs) == 0 {
				return
			}
			x := tensor.New(len(idxs), c, h, w)
			d := x.Data()
			for i, id := range idxs {
				copy(d[i*sample:(i+1)*sample], eval.Image(id))
			}
			if stamp {
				trigger.Apply(x)
			}
			for _, r := range dd.Infer(x) {
				if r.Alarmed {
					alarms++
				}
			}
		}
		run(clean, false)
		run(triggered, true)
		done += chunk
	}
	return float64(alarms) / float64(cfg.ReplayQueries)
}
