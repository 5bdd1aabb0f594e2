// Package stream is the incremental-ingestion layer of the toolkit:
// Co-plot as a continuous monitoring primitive instead of a one-shot
// report. A Stream holds a set of named observations — each a growing
// SWF log — and keeps a live Co-plot embedding over them:
//
//   - chunks of SWF records are appended atomically (a malformed chunk
//     changes nothing) and only the touched observation's Table-1
//     variables are recomputed;
//   - the normalized table and the city-block dissimilarities are
//     rebuilt from every observation's variables with the batch
//     pipeline (workload.BuildTable, core.Normalize,
//     core.CityBlockWith), so a cold solve draws exactly the batch map;
//   - the embedding is re-solved warm-started: the previous
//     configuration seeds the next SSA/SMACOF descent
//     (mds.Options.InitialConfig), so an update converges in a few
//     iterations instead of a cold multi-start — a cold solve happens
//     only when the observation set itself changes;
//   - successive embeddings are Procrustes-aligned (mds.Align) and
//     per-point displacements and arrow-angle deltas beyond the
//     configured thresholds surface as drift events — the anomaly
//     signal of the co-located-workload monitoring literature.
//
// Every append yields a monotonically versioned Snapshot; subscribers
// (the SSE endpoint) receive snapshots with coalescing back-pressure —
// a slow consumer skips intermediate versions but never sees them out
// of order and never stalls an appender. The snapshot path is
// deliberately map-free: observations, variables, drift events and
// subscribers all live in append-ordered slices, so one chunk sequence
// yields one byte sequence of snapshot JSON, a contract the
// determinism regression test enforces.
package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"

	"coplot/internal/core"
	"coplot/internal/machine"
	"coplot/internal/mat"
	"coplot/internal/mds"
	"coplot/internal/obs"
	"coplot/internal/par"
	"coplot/internal/swf"
	"coplot/internal/workload"
)

// Defaults for Config's zero drift thresholds.
const (
	// DefaultDriftPos is the positional drift threshold: an aligned
	// per-point displacement beyond this fraction of the previous
	// map's RMS radius is drift.
	DefaultDriftPos = 0.25
	// DefaultDriftAngle is the arrow drift threshold in radians
	// (≈ 20°).
	DefaultDriftAngle = 0.35
)

// Fixed limits of a stream and of its warm-start policy.
const (
	// maxObservations bounds the observations per stream.
	maxObservations = 64
	// maxJobs bounds the accumulated jobs per observation.
	maxJobs = 1 << 20
	// warmMaxIter caps a warm descent's SMACOF iterations. A warm solve
	// that has not converged within the cap is discarded and the update
	// re-anchors on a cold multi-start — the bound that keeps the
	// streaming fast path fast: a tracking update that is going to
	// converge does so in tens of iterations; one still descending at
	// the cap is wandering between local minima and a cold multi-start
	// is both cheaper and better.
	warmMaxIter = 120
	// reanchorMargin is how much a warm solve's alienation may exceed
	// the previous accepted solve's before the update re-anchors cold.
	reanchorMargin = 0.02
	// maxWarmShift is the trust region around the last cold anchor:
	// the largest Procrustes-aligned relative RMSD a warm solve may put
	// between itself and the last cold configuration, as a fraction of
	// the anchor's RMS radius, before the update re-anchors cold.
	// Genuine per-chunk motion on a near-stationary stream is well
	// below it; a slide toward a neighboring local minimum of the
	// rank-image stress landscape (empirically ≥ 0.25 away) is far
	// above it. The radius also bounds how far a stream's map can drift
	// from its last cold anchor before re-anchoring, which in turn
	// bounds the streamed-vs-batch gap the equivalence suite
	// thresholds.
	maxWarmShift = 0.05
	// warmTol is the relative stress-improvement stopping tolerance of
	// a warm descent. Deliberately coarser than the cold solver's: a
	// warm seed starts near-converged, so the first iterations correct
	// the data-induced error in large steps and the descent should stop
	// when improvements go marginal, instead of creeping along the
	// near-flat valleys of the rank-image landscape away from the
	// anchored solution.
	warmTol = 1e-2
)

// Config tunes a Stream; zero fields take the defaults.
type Config struct {
	// Name labels the stream in events and errors (the registry sets
	// it to the stream id).
	Name string
	// Machine describes the system every observation ran on; the
	// zero value means a 128-processor EASY/unlimited system, the
	// CLI default.
	Machine machine.Machine
	// Variables are the dataset's variable codes in workload.Compute
	// terms; nil means workload.DatasetVars.
	Variables []string
	// Seed drives the embedding's random restarts (cold solves).
	Seed uint64
	// Par is the worker budget for the solver; nil runs serially.
	Par *par.Budget
	// Landmarks, when positive, makes cold solves over more
	// observations than this use landmark MDS (mds.Options.Landmarks):
	// a stream tracking hundreds of observations re-anchors in
	// interactive time instead of a full multi-start. The landmark set
	// is reused across appends while the observation set is unchanged
	// — consecutive re-anchors keep the same reference frame — and
	// re-sampled when an observation joins. Warm descents are
	// unaffected (they are already cheap single descents). 0 keeps
	// exact full solves.
	Landmarks int
	// DriftPos is the positional drift threshold relative to the
	// previous map's RMS radius (0 = DefaultDriftPos, negative
	// disables positional drift).
	DriftPos float64
	// DriftAngle is the arrow-angle drift threshold in radians
	// (0 = DefaultDriftAngle, negative disables arrow drift).
	DriftAngle float64
	// Sink receives stream.update and stream.drift events; nil means
	// no events.
	Sink obs.Sink
	// Tag is an opaque creator-owned string (the serving layer stores
	// the canonical creation options here to refuse conflicting
	// appends). The stream itself never reads it.
	Tag string
}

func (c Config) withDefaults() Config {
	if c.Machine.Procs == 0 {
		c.Machine = machine.Machine{
			Name: "stream", Procs: 128,
			Scheduler: machine.SchedulerEASY, Allocator: machine.AllocatorUnlimited,
		}
	}
	if c.Variables == nil {
		c.Variables = workload.DatasetVars
	}
	if c.DriftPos == 0 {
		c.DriftPos = DefaultDriftPos
	}
	if c.DriftAngle == 0 {
		c.DriftAngle = DefaultDriftAngle
	}
	return c
}

// observation is one named, growing SWF log inside a stream.
type observation struct {
	name string
	jobs []swf.Job
	// vars is the observation's workload.Compute row over its whole
	// log; unset until the log has a job.
	vars workload.Variables
	// row is the observation's index in the embedding matrices, −1
	// while the observation is still pending.
	row int
}

// Stream is one live Co-plot analysis. All methods are safe for
// concurrent use; one mutex serializes appends, so the incremental
// state is always internally consistent.
type Stream struct {
	mu  sync.Mutex
	cfg Config

	obsList []*observation // append order; the map below is lookup only
	obsIdx  map[string]int

	// Embedded state, covering observations with row ≥ 0 in row order.
	rows []*observation
	z    *mat.Matrix // normalized values, rows in rows order
	d    *mat.Matrix // city-block dissimilarities of z

	// prev is the last accepted embedding, gauged: the warm-start seed
	// and the drift reference. Its Fit.Config is nil before the first
	// embedding and after a degenerate append.
	prev   core.Embedding
	anchor *mat.Matrix // last cold configuration (trust-region center)

	// landmarkSet pins the landmark sample of the last cold solve
	// (when Config.Landmarks is active) so later re-anchors over the
	// same observation set reuse the same frame; landmarkRows is the
	// observation count it was sampled at — a set change invalidates it.
	landmarkSet  []int
	landmarkRows int

	version uint64
	last    *Snapshot

	subs []*subscriber
}

// New builds an empty stream. The machine description must validate.
func New(cfg Config) (*Stream, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	return &Stream{cfg: cfg, obsIdx: map[string]int{}}, nil
}

// Config returns the stream's effective configuration (defaults
// applied).
func (s *Stream) Config() Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg
}

// Snapshot statuses.
const (
	// StatusOK marks a snapshot carrying a live embedding.
	StatusOK = "ok"
	// StatusPending marks a stream that cannot embed yet (fewer than
	// three computable observations).
	StatusPending = "pending"
	// StatusDegenerate marks data the solver refuses (e.g. constant
	// dissimilarities); Error carries the reason.
	StatusDegenerate = "degenerate"
)

// Drift event kinds.
const (
	// DriftPosition flags an observation whose aligned map position
	// moved beyond the positional threshold.
	DriftPosition = "position"
	// DriftArrow flags a variable whose arrow direction turned beyond
	// the angle threshold.
	DriftArrow = "arrow"
)

// DriftEvent is one threshold crossing between consecutive embeddings.
type DriftEvent struct {
	// Kind is DriftPosition or DriftArrow.
	Kind string `json:"kind"`
	// Name is the drifted observation or variable.
	Name string `json:"name"`
	// Delta is the aligned displacement relative to the previous
	// map's RMS radius (position) or the angle delta in radians
	// (arrow).
	Delta float64 `json:"delta"`
	// Threshold is the configured limit Delta crossed.
	Threshold float64 `json:"threshold"`
}

// Point is one mapped observation of a snapshot.
type Point struct {
	// Name is the observation's name.
	Name string `json:"name"`
	// X, Y are the map coordinates.
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// Jobs is the observation's accumulated job count.
	Jobs int `json:"jobs"`
}

// Snapshot is the state of a stream after one append: the live
// embedding (when available) plus the drift events the append
// triggered. Snapshots are immutable once published.
type Snapshot struct {
	// Stream is the stream's name.
	Stream string `json:"stream"`
	// Version increases by one per accepted append.
	Version uint64 `json:"version"`
	// Observations counts the stream's observations, pending included.
	Observations int `json:"observations"`
	// Jobs is the total accepted job count.
	Jobs int `json:"jobs"`
	// Status is StatusOK, StatusPending or StatusDegenerate.
	Status string `json:"status"`
	// Error carries the reason of a degenerate status.
	Error string `json:"error,omitempty"`
	// Warm reports whether the embedding was warm-started from the
	// previous configuration.
	Warm bool `json:"warm"`
	// Reanchor classifies why a cold solve ran when Warm is false:
	// "first" (no prior embedding), "set-changed" (observations were
	// added), "no-converge" (the warm descent did not converge within
	// 120 iterations), "fit-degraded" (warm alienation exceeded the
	// previous accepted solve's by more than 0.02), or "basin-shift"
	// (warm moved more than 5% of the cold anchor's RMS radius away
	// from it). Empty on warm snapshots.
	Reanchor string `json:"reanchor,omitempty"`
	// Iterations the SMACOF descent performed for this embedding.
	Iterations int `json:"iterations,omitempty"`
	// Alienation is Guttman's Θ of the embedding.
	Alienation float64 `json:"alienation,omitempty"`
	// Stress is Kruskal's stress-1 of the embedding.
	Stress float64 `json:"stress,omitempty"`
	// Points are the mapped observations, in append order.
	Points []Point `json:"points,omitempty"`
	// Arrows are the variable arrows, in Config.Variables order.
	Arrows []core.Arrow `json:"arrows,omitempty"`
	// Pending names observations not yet embeddable, in append order.
	Pending []string `json:"pending,omitempty"`
	// Drift lists this append's threshold crossings: points first (in
	// append order), then arrows (in variable order).
	Drift []DriftEvent `json:"drift,omitempty"`
}

// ErrTooManyObservations rejects an append that would create an
// observation past the 64 a stream holds.
var ErrTooManyObservations = errors.New("stream: too many observations")

// ErrTooManyJobs rejects a chunk that would grow an observation past
// 2^20 jobs.
var ErrTooManyJobs = errors.New("stream: too many jobs")

// Append parses chunk as SWF records, folds them into the named
// observation (created on first sight), and recomputes the embedding.
// The append is atomic: a parse error, size-limit rejection or
// cancelled context leaves the stream exactly as it was. An accepted
// chunk — even an empty one, which still bumps the version — yields
// the new snapshot and notifies subscribers.
func (s *Stream) Append(ctx context.Context, obsName string, chunk []byte) (*Snapshot, error) {
	if obsName == "" {
		return nil, fmt.Errorf("stream: empty observation name")
	}
	parsed, err := swf.Parse(bytes.NewReader(chunk))
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	idx, ok := s.obsIdx[obsName]
	if !ok && len(s.obsList) >= maxObservations {
		return nil, fmt.Errorf("%w: %d", ErrTooManyObservations, maxObservations)
	}
	var o *observation
	if ok {
		o = s.obsList[idx]
	} else {
		o = &observation{name: obsName, row: -1}
	}
	if len(o.jobs)+len(parsed.Jobs) > maxJobs {
		return nil, fmt.Errorf("%w: %s would exceed %d", ErrTooManyJobs, obsName, maxJobs)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The append is committed from here on: recomputation failures
	// degrade the snapshot status, they do not reject the data.
	if !ok {
		s.obsIdx[obsName] = len(s.obsList)
		s.obsList = append(s.obsList, o)
	}
	o.jobs = append(o.jobs, parsed.Jobs...)

	s.refreshObservation(o)
	snap := s.embed(ctx, o)
	s.version++
	snap.Version = s.version
	s.last = snap
	s.publishLocked(snap)

	obs.Emit(s.cfg.Sink, obs.Event{
		Kind: obs.KindStreamUpdate, Name: s.cfg.Name, Version: snap.Version,
	})
	for _, d := range snap.Drift {
		obs.Emit(s.cfg.Sink, obs.Event{
			Kind: obs.KindStreamDrift, Name: s.cfg.Name, Version: snap.Version,
			Reason: d.Kind + ":" + d.Name, Delta: d.Delta,
		})
	}
	return snap, nil
}

// refreshObservation recomputes o's Table-1 row from its accumulated
// log; an observation's first computable row gives it its place in
// the embedding matrices.
func (s *Stream) refreshObservation(o *observation) {
	if len(o.jobs) == 0 {
		return
	}
	v, err := workload.Compute(o.name, &swf.Log{Jobs: o.jobs}, s.cfg.Machine)
	if err != nil {
		// workload.Compute only fails on an empty log or an invalid
		// machine, both excluded above/at New; be safe anyway.
		return
	}
	if o.row < 0 {
		o.row = len(s.rows)
		s.rows = append(s.rows, o)
	}
	o.vars = v
}

// normalize rebuilds z and d from the embedded observations' rows
// with the batch pipeline — BuildTable's column-mean substitution,
// core.Normalize, core.CityBlockWith — the sequence corpus.Match runs.
// A variable missing from every observation, which BuildTable rejects,
// is first given one constant value: a constant column normalizes to
// zeros, so it adds nothing to d and fits a zero arrow.
func (s *Stream) normalize() {
	if len(s.rows) == 0 {
		return
	}
	rows := make([]workload.Variables, len(s.rows))
	for i, o := range s.rows {
		rows[i] = o.vars
	}
	for _, code := range s.cfg.Variables {
		if !slices.ContainsFunc(rows, func(v workload.Variables) bool { return !math.IsNaN(v.Get(code)) }) {
			vals := maps.Clone(rows[0].Values)
			vals[code] = 0
			rows[0].Values = vals
		}
	}
	tab, err := workload.BuildTable(rows, s.cfg.Variables)
	if err != nil {
		// Unreachable: there is a row and every code has a value.
		panic("stream: internal error: " + err.Error())
	}
	s.z = core.Normalize(&core.Dataset{Observations: tab.Observations, Variables: tab.Codes, X: tab.Data})
	s.d = core.CityBlockWith(s.z, s.cfg.Par)
}

// embed refreshes the dissimilarities and the embedding after an
// append touching o, and assembles the (unversioned) snapshot.
func (s *Stream) embed(ctx context.Context, o *observation) *Snapshot {
	snap := &Snapshot{
		Stream:       s.cfg.Name,
		Observations: len(s.obsList),
	}
	for _, ob := range s.obsList {
		snap.Jobs += len(ob.jobs)
		if ob.row < 0 {
			snap.Pending = append(snap.Pending, ob.name)
		}
	}

	s.normalize()

	n := len(s.rows)
	if n < 3 {
		snap.Status = StatusPending
		return snap
	}

	// Solve policy: try a single warm descent seeded by the previous
	// configuration whenever the observation set is unchanged, and
	// accept it only if it (a) converged within the warm iteration
	// cap, (b) kept the fit within reanchorMargin of the last accepted
	// alienation, and (c) stayed inside the trust region around the
	// last cold configuration. Anything else — a changed observation
	// set, a wandering descent, a degrading fit, a basin hop —
	// re-anchors on a cold multi-start, the same solve the batch
	// pipeline runs.
	//
	// The trust region deserves a word: non-metric MDS is non-convex
	// with many near-tied local minima, and a long chain of warm
	// solves over slowly shifting data acts like annealing — it will
	// happily migrate into a different (sometimes even better-fitting)
	// basin than the deterministic cold solve on the same data. A fit
	// gate alone cannot stop that, because the migration never
	// degrades the fit. Tethering warm updates to the last cold
	// anchor is what makes a streamed map equivalent to the one-shot
	// batch map, and what makes on-screen motion mean data change
	// rather than solver restlessness.
	cold := mds.Options{Seed: s.cfg.Seed, Par: s.cfg.Par, Landmarks: s.cfg.Landmarks}
	if s.cfg.Landmarks > 0 && s.landmarkRows == n {
		cold.LandmarkSet = s.landmarkSet
	}
	var emb core.Embedding
	var err error
	warm := false
	reanchor := "first"
	prev := s.prev.Fit.Config
	switch {
	case prev == nil:
	case prev.Rows != n:
		reanchor = "set-changed"
	default:
		wopts := cold
		wopts.InitialConfig = prev
		wopts.Restarts = -1
		wopts.MaxIter = warmMaxIter
		wopts.Tol = warmTol
		wemb, werr := core.Embed(ctx, s.cfg.Variables, s.z, s.d, wopts)
		wfit := wemb.Fit
		if werr == nil {
			// Canonicalize the gauge before judging the solve: solver
			// output keeps whatever scale its seed implied, and the
			// trust-region Align is rotation-only, so without a common
			// scale the gate would read gauge drift as basin escape.
			mds.ScaleToDissim(wfit.Config, s.d)
		}
		switch {
		case werr != nil || !wfit.Converged || wfit.Iterations >= warmMaxIter:
			// !Converged covers both an exhausted iteration cap and a
			// descent that halted on a stress rise beyond warmTol —
			// the latter used to masquerade as convergence and let a
			// degrading warm solve through this gate.
			reanchor = "no-converge"
		case wfit.Alienation > s.prev.Fit.Alienation+reanchorMargin:
			reanchor = "fit-degraded"
		case !s.insideTrustRegion(wfit.Config):
			reanchor = "basin-shift"
		default:
			emb, warm = wemb, true
		}
	}
	if !warm {
		emb, err = core.Embed(ctx, s.cfg.Variables, s.z, s.d, cold)
		if err != nil {
			// Degenerate data (constant dissimilarities early in a
			// stream's life) is a state, not a failure: the append stands
			// and the embedding resumes once the data diversifies.
			snap.Status = StatusDegenerate
			snap.Error = err.Error()
			s.prev, s.anchor = core.Embedding{}, nil
			s.landmarkSet, s.landmarkRows = nil, 0
			return snap
		}
		mds.ScaleToDissim(emb.Fit.Config, s.d)
		s.anchor = emb.Fit.Config
		// Pin (or refresh) the landmark frame this cold solve used, so
		// the next re-anchor at the same observation set keeps it.
		s.landmarkSet, s.landmarkRows = emb.Fit.Landmarks, 0
		if emb.Fit.Landmarks != nil {
			s.landmarkRows = n
		}
	}

	fit := emb.Fit
	snap.Status = StatusOK
	snap.Warm = warm
	if !warm {
		snap.Reanchor = reanchor
	}
	snap.Iterations = fit.Iterations
	snap.Alienation = fit.Alienation
	snap.Stress = fit.Stress
	for i, ob := range s.rows {
		snap.Points = append(snap.Points, Point{
			Name: ob.name, X: fit.Config.At(i, 0), Y: fit.Config.At(i, 1), Jobs: len(ob.jobs),
		})
	}
	snap.Arrows = emb.Arrows
	if prev != nil && prev.Rows == n {
		snap.Drift = s.drift(emb)
	}
	s.prev = emb
	return snap
}

// insideTrustRegion reports whether config sits within maxWarmShift of
// the last cold anchor (Procrustes-aligned, relative to the anchor's
// RMS radius). No anchor, or an anchor for a different observation
// count, fails closed — the caller then re-anchors cold.
func (s *Stream) insideTrustRegion(config *mat.Matrix) bool {
	if s.anchor == nil || s.anchor.Rows != config.Rows {
		return false
	}
	scale := mds.RMSRadius(s.anchor)
	if scale <= 0 {
		return false
	}
	_, rmsd, err := mds.Align(s.anchor, config)
	if err != nil {
		return false
	}
	return rmsd/scale <= maxWarmShift
}

// drift compares the new embedding against the previous one:
// Procrustes-aligned per-point displacements beyond DriftPos × the
// previous RMS radius, and arrow-angle deltas beyond DriftAngle.
// Events come back points first in row order, then arrows in variable
// order — a fixed order, so snapshot bytes stay deterministic.
func (s *Stream) drift(next core.Embedding) []DriftEvent {
	var events []DriftEvent
	prev := s.prev.Fit.Config
	if s.cfg.DriftPos > 0 {
		aligned, _, err := mds.Align(prev, next.Fit.Config)
		if err == nil {
			scale := mds.RMSRadius(prev)
			if scale > 0 {
				for i, ob := range s.rows {
					dx := aligned.At(i, 0) - prev.At(i, 0)
					dy := aligned.At(i, 1) - prev.At(i, 1)
					if rel := math.Hypot(dx, dy) / scale; rel > s.cfg.DriftPos {
						events = append(events, DriftEvent{
							Kind: DriftPosition, Name: ob.name,
							Delta: rel, Threshold: s.cfg.DriftPos,
						})
					}
				}
			}
		}
	}
	if s.cfg.DriftAngle > 0 {
		for k, a := range next.Arrows {
			if k >= len(s.prev.Arrows) {
				break
			}
			pa := s.prev.Arrows[k]
			// A zero arrow (degenerate fit) has no direction to compare.
			if (a.DX == 0 && a.DY == 0) || (pa.DX == 0 && pa.DY == 0) {
				continue
			}
			delta := math.Abs(math.Mod(a.Angle()-pa.Angle()+3*math.Pi, 2*math.Pi) - math.Pi)
			if delta > s.cfg.DriftAngle {
				events = append(events, DriftEvent{
					Kind: DriftArrow, Name: a.Name,
					Delta: delta, Threshold: s.cfg.DriftAngle,
				})
			}
		}
	}
	return events
}

// Latest returns the most recent snapshot (nil before the first
// append).
func (s *Stream) Latest() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// subscriber is one Watch consumer: a 1-slot coalescing mailbox.
type subscriber struct {
	ch chan *Snapshot
}

// Subscribe registers a snapshot consumer. The returned channel
// delivers the current snapshot (if any) immediately and then every
// subsequent version, coalesced under back-pressure: a consumer that
// falls behind skips to the newest snapshot instead of stalling
// appenders. cancel unregisters and closes the channel; it is safe to
// call more than once.
func (s *Stream) Subscribe() (<-chan *Snapshot, func()) {
	sub := &subscriber{ch: make(chan *Snapshot, 1)}
	s.mu.Lock()
	s.subs = append(s.subs, sub)
	if s.last != nil {
		sub.ch <- s.last
	}
	s.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			s.mu.Lock()
			for i, x := range s.subs {
				if x == sub {
					s.subs = append(s.subs[:i], s.subs[i+1:]...)
					break
				}
			}
			s.mu.Unlock()
			close(sub.ch)
		})
	}
	return sub.ch, cancel
}

// publishLocked hands snap to every subscriber, never blocking: a full
// mailbox is drained first, so the slot always holds the newest
// snapshot. Callers hold s.mu, which is what makes the drain-then-send
// race-free against other publishers (consumers only receive).
func (s *Stream) publishLocked(snap *Snapshot) {
	for _, sub := range s.subs {
		select {
		case sub.ch <- snap:
			continue
		default:
		}
		select {
		case <-sub.ch:
		default:
		}
		select {
		case sub.ch <- snap:
		default:
		}
	}
}
