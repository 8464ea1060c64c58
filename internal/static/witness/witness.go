// Package witness implements the analyzer's precision tier: it takes
// the static analyzer's predicted conflicts — sound but deliberately
// conservative — and spends directed dynamic effort to classify each
// prediction.
//
//   - Confirmed: some legal schedule raises the conflict, and we hold a
//     replayable witness for it — a Directive naming the region pair and
//     entry order, executed by a deterministic schedule director
//     (sim.Director), so the directive alone reproduces the detection.
//   - Refuted: provably unrealizable under every schedule
//     (static.RefutesPair's acquisition-history argument, applied to
//     every byte-clashing member pair of the record).
//   - Unwitnessed: neither, within budget. Soundness is unaffected —
//     an unwitnessed prediction is still a prediction.
//
// Classification is tiered by cost: refutation is free (static), one
// default-schedule run confirms everything today's interleaving already
// detects, and only the remainder pays for directed replays that
// co-time the two target regions. The resulting precision metric
// (confirmed+refuted over predicted) and the refined per-job
// confirmed-conflict counts feed the WIT experiment and the scheduler
// cost model (sched.EstimateCost).
package witness

import (
	"errors"
	"fmt"
	"sync"

	"arcsim/internal/core"
	"arcsim/internal/machine"
	"arcsim/internal/protocols"
	"arcsim/internal/sim"
	"arcsim/internal/static"
	"arcsim/internal/trace"
)

// Order selects which target region the directed schedule opens first.
type Order uint8

const (
	// OrderDefault marks a witness needing no direction: the engine's
	// default schedule already detects the conflict.
	OrderDefault Order = iota
	// OrderAFirst holds region A open until B co-times with it.
	OrderAFirst
	// OrderBFirst is the mirror: B enters first.
	OrderBFirst
)

func (o Order) String() string {
	switch o {
	case OrderAFirst:
		return "a-first"
	case OrderBFirst:
		return "b-first"
	}
	return "default"
}

// Directive is a replayable witness schedule: co-time regions A and B
// on Line, opening Order's side first. Because the co-timing director is
// a deterministic function of the directive, this small value is the
// whole artifact — Replay re-derives the schedule and the detection.
type Directive struct {
	Line  core.Line     `json:"line"`
	A     core.RegionID `json:"a"`
	B     core.RegionID `json:"b"`
	Order Order         `json:"order"`
}

func (d Directive) String() string {
	return fmt.Sprintf("line %#x %v/%v %s", uint64(d.Line.Base()), d.A, d.B, d.Order)
}

// Status classifies one prediction.
type Status uint8

const (
	// Unwitnessed predictions exhausted the replay budget unresolved.
	Unwitnessed Status = iota
	// Confirmed predictions carry a replayable witness directive.
	Confirmed
	// Refuted predictions are provably unrealizable in any schedule.
	Refuted
)

func (s Status) String() string {
	switch s {
	case Confirmed:
		return "confirmed"
	case Refuted:
		return "refuted"
	}
	return "unwitnessed"
}

// Prediction is one record's classification.
type Prediction struct {
	Conflict static.PredictedConflict
	Status   Status
	// Witness is the replayable schedule, non-nil exactly when
	// Status == Confirmed.
	Witness *Directive
	// Clashing and RefutedPairs count the record's byte-clashing member
	// pairs and how many of those the acquisition-history pass refuted.
	Clashing     int
	RefutedPairs int
	// Replays is how many directed replays this record consumed.
	Replays int
}

// Report is the witness engine's output for one program.
type Report struct {
	Protocol    string
	Predicted   int
	Confirmed   int
	Refuted     int
	Unwitnessed int
	// Replays counts directed replays executed (the default-schedule
	// run and refutations are not replays).
	Replays     int
	Predictions []Prediction
}

// Precision is the fraction of predictions classified either way —
// confirmed (realizable, with a witness) or refuted (unrealizable,
// with a proof). 1 for programs with no predictions.
func (r *Report) Precision() float64 {
	if r.Predicted == 0 {
		return 1
	}
	return float64(r.Confirmed+r.Refuted) / float64(r.Predicted)
}

// Options tunes an examination.
type Options struct {
	// Protocol is the detecting design replays run under (default
	// protocols.CE).
	Protocol string
	// MaxReplays bounds the total directed replays across all
	// predictions (default 64). The budget policy is deliberately
	// global, not per-record: racy programs concentrate predictions on
	// a few lines, and a global budget degrades to Unwitnessed tails
	// instead of multiplying run time by the record count.
	MaxReplays int
	// PairLimit bounds the member pairs tried per record (default 4);
	// each pair costs up to two replays (both orders).
	PairLimit int
	// MaxCycles aborts a runaway replay (default 50M, the conformance
	// bound).
	MaxCycles uint64
	// Oracle mirrors every replay into the golden detector, turning
	// each witness run into a conformance check too.
	Oracle bool
	// Jobs bounds the directed replays an examination runs at once. 0
	// or 1 runs them one after another on the caller's goroutine. More
	// start replays ahead of the budget walk, which still consumes
	// their verdicts in record order, so the report is the same at
	// every value.
	Jobs int
	// Pool supplies the machine pairs an examination runs on (a sweep's
	// or a daemon's pool); nil keeps a pool local to the examination.
	// Replay ignores it: it always builds afresh.
	Pool *protocols.Pool
}

func (o Options) normalized() Options {
	if o.Protocol == "" {
		o.Protocol = protocols.CE
	}
	if o.MaxReplays == 0 {
		o.MaxReplays = 64
	}
	if o.PairLimit == 0 {
		o.PairLimit = 4
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 50_000_000
	}
	return o
}

// run executes tr under opt's protocol with the given director (nil for
// the default schedule) on a pair from pool, and returns the pair to it.
// An examination recycles one pair through a local pool, so it pays for
// one machine build however many directed replays it spends.
func run(pool *protocols.Pool, tr *trace.Trace, dir sim.Director, opt Options) (*sim.Result, error) {
	m, p, err := pool.Get(opt.Protocol, machine.Fitted(tr.NumThreads()))
	if err != nil {
		return nil, err
	}
	defer pool.Put(opt.Protocol, m, p)
	return sim.Run(m, p, tr, sim.Options{
		CheckWithOracle: opt.Oracle,
		MaxCycles:       opt.MaxCycles,
		Director:        dir,
	})
}

// scheduleFault reports errors that condemn one schedule, not the
// examination: a program (or a directed interleaving of it) may
// genuinely deadlock — the AH refutation gadget is the classic deadly
// embrace — or exceed the cycle bound. Such a run simply detected
// nothing.
func scheduleFault(err error) bool {
	return errors.Is(err, sim.ErrDeadlock) || errors.Is(err, sim.ErrMaxCycles)
}

// confirmsRecord reports whether one of exs (a run's exceptions, in
// detection order) is a conflict belonging to record pc, and if so
// which region pair the first such conflict names.
func confirmsRecord(an *static.Analysis, pc static.PredictedConflict, exs []core.Exception) (core.RegionID, core.RegionID, bool) {
	for _, ex := range exs {
		c := ex.Conflict
		if c.Line == pc.Line && an.RecordContains(pc, c.First, c.Second) {
			return c.First, c.Second, true
		}
	}
	return core.RegionID{}, core.RegionID{}, false
}

// Replay executes d's schedule and reports whether it raised a conflict
// belonging to record pc — the verification half of the witness
// contract: every Confirmed prediction's directive must Replay true.
// It builds a fresh machine (an empty pool), which makes it the
// reference the examination's recycled pair is checked against.
func Replay(tr *trace.Trace, an *static.Analysis, pc static.PredictedConflict, d Directive, opt Options) (bool, *sim.Result, error) {
	return replay(new(protocols.Pool), tr, an, pc, d, opt.normalized())
}

// replay is Replay on a pair from pool.
func replay(pool *protocols.Pool, tr *trace.Trace, an *static.Analysis, pc static.PredictedConflict, d Directive, opt Options) (bool, *sim.Result, error) {
	var dir sim.Director
	if d.Order != OrderDefault {
		dir = newCoTimer(d)
	}
	res, err := run(pool, tr, dir, opt)
	if err != nil {
		if scheduleFault(err) {
			return false, nil, nil
		}
		return false, nil, err
	}
	_, _, ok := confirmsRecord(an, pc, res.Exceptions)
	return ok, res, nil
}

// RefutedDRF reports whether every predicted conflict record of an is
// statically refuted — the free tier of the examination, costing no
// simulation. Such a program is dynamically DRF (no schedule realizes
// any prediction) even though the analyzer could not prove DRF; callers
// that cannot afford an Examine (e.g. the scheduler's cost model) can
// still claim the refinement this check grants. False when the program
// is proven DRF outright (nothing was predicted, nothing refined).
func RefutedDRF(an *static.Analysis) bool {
	records := an.Conflicts()
	if len(records) == 0 {
		return false
	}
	for _, pc := range records {
		_, clashing, refuted := an.WitnessPairs(pc, 1)
		if clashing == 0 || refuted != clashing {
			return false
		}
	}
	return true
}

// Examine classifies every predicted conflict of an (which must be tr's
// analysis). See the package comment for the tiering.
func Examine(tr *trace.Trace, an *static.Analysis, opt Options) (*Report, error) {
	opt = opt.normalized()
	records := an.Conflicts()
	rep := &Report{Protocol: opt.Protocol, Predicted: len(records)}
	if len(records) == 0 {
		return rep, nil
	}
	pool := opt.Pool
	if pool == nil {
		pool = new(protocols.Pool)
	}
	rep.Predictions = make([]Prediction, len(records))
	// Tier 1 is the per-record refutation, which is free. Tier 2: one
	// default-schedule run confirms, at the cost of a single
	// simulation, every record today's interleaving already detects.
	// It runs lazily — a fully refuted program never simulates — and
	// tolerates programs whose default schedule deadlocks (they just
	// detect nothing by default). Its exceptions are grouped by line
	// once, in detection order, so each record scans only its own
	// line's and still finds the first match.
	var byLine map[core.Line][]core.Exception
	var targets []target
	for i, pc := range records {
		p := &rep.Predictions[i]
		*p = Prediction{Conflict: pc, Status: Unwitnessed}
		pairs, clashing, refuted := an.WitnessPairs(pc, opt.PairLimit)
		p.Clashing, p.RefutedPairs = clashing, refuted
		if clashing > 0 && refuted == clashing {
			p.Status = Refuted
			continue
		}
		if byLine == nil {
			res, err := run(pool, tr, nil, opt)
			if err != nil && !scheduleFault(err) {
				return nil, fmt.Errorf("witness: baseline run: %w", err)
			}
			byLine = map[core.Line][]core.Exception{}
			if res != nil {
				for _, ex := range res.Exceptions {
					byLine[ex.Conflict.Line] = append(byLine[ex.Conflict.Line], ex)
				}
			}
		}
		if a, b, ok := confirmsRecord(an, pc, byLine[pc.Line]); ok {
			p.Status = Confirmed
			p.Witness = &Directive{Line: pc.Line, A: a, B: b, Order: OrderDefault}
			continue
		}
		if len(pairs) > 0 {
			targets = append(targets, target{rec: i, pc: pc, pairs: pairs})
		}
	}
	ra := &runAhead{jobs: opt.Jobs, budget: opt.MaxReplays, targets: targets,
		replay: func(t *target, d Directive) (bool, error) {
			ok, _, err := replay(pool, tr, an, t.pc, d, opt)
			return ok, err
		}}
	if err := ra.walk(rep); err != nil {
		return nil, err
	}
	for _, p := range rep.Predictions {
		switch p.Status {
		case Confirmed:
			rep.Confirmed++
		case Refuted:
			rep.Refuted++
		default:
			rep.Unwitnessed++
		}
	}
	return rep, nil
}

// target is a record that tier 2 left open, with its index in the
// report and the member pairs tier 3 co-times.
type target struct {
	rec   int
	pc    static.PredictedConflict
	pairs [][2]core.RegionID
}

// attempts is how many directed replays t can spend: each member pair
// in both entry orders.
func (t *target) attempts() int { return 2 * len(t.pairs) }

// directive is t's j-th attempt: pair j/2, A first for even j.
func (t *target) directive(j int) Directive {
	d := Directive{Line: t.pc.Line, A: t.pairs[j/2][0], B: t.pairs[j/2][1], Order: OrderAFirst}
	if j%2 == 1 {
		d.Order = OrderBFirst
	}
	return d
}

// runAhead is tier 3: directed replays, co-timing one member pair per
// attempt, both entry orders, within the global budget. Its walk visits
// the targets in record order, and a target's attempts in order until
// one confirms, charging each attempt it consumes to the budget: the
// serial walk. With Jobs above 1 it also starts replays before the walk
// needs them, on up to Jobs goroutines. A replay's verdict is a function
// of its directive alone (the pool hands out pairs Reset to their built
// state), so the order replays run in cannot change what the walk reads.
// It guesses that every attempt confirms: beside the attempt the walk
// takes, it starts only first attempts of later targets, and the walk
// consumes each of those unless the budget runs out first. At most Jobs
// attempts are started and not yet consumed at any time, so at most
// Jobs-1 go to waste.
type runAhead struct {
	jobs    int // replays run at once; 0 or 1 runs them on the walk's goroutine
	budget  int // Options.MaxReplays
	targets []target
	// replay runs one attempt of a target and reports whether it
	// confirmed the target's record.
	replay func(t *target, d Directive) (bool, error)

	ahead []*attempt // first attempts started ahead of the walk, in target order
	next  int        // the first target whose first attempt is not started
	wg    sync.WaitGroup
}

// attempt is one directed replay. Its verdict is final once done is
// closed; a nil done means it ran on the walk's goroutine.
type attempt struct {
	ti   int // its target
	d    Directive
	done chan struct{}
	ok   bool
	err  error
}

// walk spends the budget on rep's open records and returns once every
// replay it started has finished. A replay's error surfaces only if the
// walk reaches that replay.
func (ra *runAhead) walk(rep *Report) error {
	defer ra.wg.Wait()
	for ti := range ra.targets {
		t := &ra.targets[ti]
		p := &rep.Predictions[t.rec]
		for j := 0; j < t.attempts(); j++ {
			if rep.Replays >= ra.budget {
				return nil
			}
			a := ra.take(ti, j, rep.Replays)
			rep.Replays++
			p.Replays++
			if a.done != nil {
				<-a.done
			}
			if a.err != nil {
				return fmt.Errorf("witness: replay %v: %w", a.d, a.err)
			}
			if a.ok {
				p.Status = Confirmed
				p.Witness = &a.d
				break
			}
		}
	}
	return nil
}

// take returns attempt j of target ti, which the walk consumes next with
// spent replays already charged: the one started ahead, or a new one.
// It then fills the slots the walk leaves free with first attempts of
// later targets that the budget can still reach; the attempt taken
// keeps its slot until the walk has read its verdict.
func (ra *runAhead) take(ti, j, spent int) *attempt {
	var a *attempt
	if len(ra.ahead) > 0 && ra.ahead[0].ti == ti {
		a, ra.ahead = ra.ahead[0], ra.ahead[1:]
	} else {
		a = ra.start(ti, j)
	}
	ra.next = max(ra.next, ti+1)
	for 1+len(ra.ahead) < ra.jobs && ra.next < len(ra.targets) &&
		spent+1+len(ra.ahead) < ra.budget {
		ra.ahead = append(ra.ahead, ra.start(ra.next, 0))
		ra.next++
	}
	return a
}

// start begins attempt j of target ti: on a new goroutine when more
// than one replay may run at once, else on the caller's.
func (ra *runAhead) start(ti, j int) *attempt {
	t := &ra.targets[ti]
	a := &attempt{ti: ti, d: t.directive(j)}
	if ra.jobs <= 1 {
		a.ok, a.err = ra.replay(t, a.d)
		return a
	}
	a.done = make(chan struct{})
	ra.wg.Add(1)
	go func() {
		defer ra.wg.Done()
		a.ok, a.err = ra.replay(t, a.d)
		close(a.done)
	}()
	return a
}
