// Package selfplay implements the paper's training pipeline (Section
// IV-A): episodes of the PBQP game played against the previously best
// network, iterations of a fixed number of episodes, a bounded replay
// queue of training tuples, minibatch Adam training with the combined
// loss L = (v − v̂)² − pᵀ log p̂ + c‖θ‖², and arena gating — the new
// network replaces the best one only if it wins more than half of a set
// of fresh evaluation games.
package selfplay

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sync/atomic"
	"time"

	"pbqprl/internal/cost"
	"pbqprl/internal/game"
	"pbqprl/internal/gcn"
	"pbqprl/internal/mcts"
	"pbqprl/internal/net"
	"pbqprl/internal/nn"
	"pbqprl/internal/par"
	"pbqprl/internal/pbqp"
	"pbqprl/internal/rl"
	"pbqprl/internal/tensor"
)

// Sample is one training tuple (s, p, v): a frozen reduced-graph state,
// the MCTS policy label, and the final episode reward label.
type Sample struct {
	View gcn.View
	Pi   tensor.Vec
	Z    float64
}

// The optimiser's settings (§IV-D): Adam's learning rate and the c of
// the loss's L2 regularization term.
const (
	learningRate = 1e-3
	l2Weight     = 1e-4
)

// Config tunes the trainer. Zero values take the listed defaults, which
// are laptop-scale versions of the paper's hyperparameters.
type Config struct {
	// EpisodesPerIter is the number of self-play episodes per
	// iteration (paper: 100).
	EpisodesPerIter int
	// KTrain is the MCTS simulation count per move during training
	// runs (paper: 50 or 100).
	KTrain int
	// ReplayCap bounds the replay queue (paper: 200,000 tuples).
	ReplayCap int
	// BatchSize is the Adam minibatch size (paper: 64).
	BatchSize int
	// TrainSteps is the number of minibatch steps per iteration
	// (default: 2 × EpisodesPerIter).
	TrainSteps int
	// ArenaGames and ArenaWins gate network promotion: the new
	// network is kept if it wins strictly more than ArenaWins of
	// ArenaGames fresh games (paper: more than 5 of 10).
	ArenaGames int
	ArenaWins  int
	// PromoteOnTie additionally keeps the candidate whenever it wins
	// at least as many arena games as it loses. In the zero/infinity
	// ATE regime most games tie (both players reach cost zero or both
	// dead-end), so the paper's absolute-win gate would discard every
	// iteration's learning at laptop scale; this rule keeps the gate
	// meaningful for decisive games without starving training.
	PromoteOnTie bool
	// Order is the coloring order for training games.
	Order game.Order
	// Workers is the number of goroutines an iteration fans out over
	// (par.Do, the caller's goroutine among them): its self-play episodes
	// and arena games, the caller's on the trainer's own networks and
	// each other on its own clones, and its gradient steps, whose samples
	// are embedded and back-propagated concurrently while one goroutine
	// adds to every sum in sample order (GradientStep); 0 or 1 runs
	// everything on the caller's goroutine. Every episode's randomness
	// comes from a seed pre-drawn from the master stream, results are
	// merged in episode order, and every gradient element receives its
	// terms in sample order, so any worker count — including resuming a
	// checkpoint under a different one — trains bit-identically. With
	// Workers > 1, Generate must be safe for concurrent calls (derive all
	// randomness from the rng it is handed).
	Workers int
	// Episodes optionally hands the episode phase of each iteration
	// to a backend of the caller's. Nil — what every training run sets
	// — plays episodes in process on Workers goroutines; the callers
	// today are the benchmark's tracer, which wraps RunEpisode to time
	// each episode, and the contract tests. See EpisodeBackend for the
	// contract that keeps a backend-driven run bit-identical to the
	// in-process one. Arena games always run in process.
	Episodes EpisodeBackend
	// Generate produces the episode graph distribution (paper:
	// Erdős–Rényi with normally distributed n). Required.
	Generate func(rng *rand.Rand) *pbqp.Graph
	// Seed makes training reproducible.
	Seed int64
	// Logf receives warnings — a skipped (panicked) episode with its
	// reproduction seed, for example — and one line per completed
	// iteration with the wall-clock of its three phases (episodes,
	// gradient steps, arena) and the gradient samples per second. Nil
	// discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.EpisodesPerIter == 0 {
		c.EpisodesPerIter = 100
	}
	if c.KTrain == 0 {
		c.KTrain = 50
	}
	if c.ReplayCap == 0 {
		c.ReplayCap = 200_000
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.TrainSteps == 0 {
		c.TrainSteps = 2 * c.EpisodesPerIter
	}
	if c.ArenaGames == 0 {
		c.ArenaGames = 10
	}
	if c.ArenaWins == 0 {
		c.ArenaWins = c.ArenaGames / 2
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	return c
}

// EpisodeResult is the outcome of one self-play episode: the reward of
// the training run against the best player, the collected training
// tuples (Z still unset — the merge stamps it), and the recovered
// panic, if any, that made the episode unusable (the merge counts it
// as skipped).
type EpisodeResult struct {
	Z       float64
	Samples []Sample
	Err     error
}

// EpisodeBatch is the unit of work handed to an EpisodeBackend: the
// seeds of episodes [Start, Start+len(Seeds)) of the iteration, plus
// the two networks frozen for its duration. Seed i fully determines
// episode Start+i; the backend may play the episodes anywhere, in any
// order, on bit-exact copies of the networks (RunEpisode is the
// reference implementation).
type EpisodeBatch struct {
	Iteration int
	Start     int
	Seeds     []int64
	Cur, Best *net.PBQPNet
}

// EpisodeBackend runs an episode batch on behalf of the trainer — by
// default the trainer's own in-process player; in this tree also the
// benchmark's tracer and the TestEpisodeBackend* contract tests. It must
// return results for a prefix of the batch in episode order: all of them
// with a nil error (batch complete), or the committed prefix plus the
// reason dispatch stopped — typically ctx.Err(). The trainer merges the
// prefix and rewinds its master RNG over the remainder, so the run
// resumes bit-identically however the batch was scheduled or where it
// was cut short.
type EpisodeBackend func(ctx context.Context, batch EpisodeBatch) ([]EpisodeResult, error)

// IterStats summarizes one training iteration.
type IterStats struct {
	Iteration   int
	Episodes    int
	Wins        int // training-run wins against the best player
	Losses      int
	Ties        int
	Skipped     int // episodes abandoned after a panic
	Samples     int // tuples collected this iteration
	ReplaySize  int
	AvgLoss     float64
	ArenaWins   int
	ArenaLosses int
	Promoted    bool // whether the new network replaced the best one
}

// String renders the stats on one line.
func (s IterStats) String() string {
	line := fmt.Sprintf("iter %d: episodes=%d W/L/T=%d/%d/%d samples=%d replay=%d loss=%.4f arena=%d-%d promoted=%v",
		s.Iteration, s.Episodes, s.Wins, s.Losses, s.Ties, s.Samples, s.ReplaySize, s.AvgLoss, s.ArenaWins, s.ArenaLosses, s.Promoted)
	if s.Skipped > 0 {
		line += fmt.Sprintf(" skipped=%d", s.Skipped)
	}
	return line
}

// Trainer runs the self-play loop.
type Trainer struct {
	cfg    Config
	cur    *net.PBQPNet // θ, the network being trained
	best   *net.PBQPNet // θ*, the best player so far
	replay replayQueue
	opt    *nn.Adam
	src    *pcgSource // serializable master RNG stream
	rng    *rand.Rand
	iter   int // iterations started (including an interrupted one)

	slots []net.Slot // GradientStep's, StepSlots of them, and train's
	batch []Sample   // minibatch, reused from step to step

	// pending holds the partial stats of an iteration interrupted by
	// context cancellation; RunIteration resumes it at pendingEpisode.
	// Both survive checkpointing, so a resumed run picks up exactly
	// where the interrupted one stopped.
	pending        *IterStats
	pendingEpisode int
}

// NewTrainer creates a trainer around an initial network, which is
// cloned for the best player. It returns an error for an invalid
// configuration (Generate missing, negative sizes).
func NewTrainer(n *net.PBQPNet, cfg Config) (*Trainer, error) {
	if n == nil {
		return nil, errors.New("selfplay: network is required")
	}
	if cfg.Generate == nil {
		return nil, errors.New("selfplay: Config.Generate is required")
	}
	if cfg.EpisodesPerIter < 0 || cfg.KTrain < 0 || cfg.ReplayCap < 0 ||
		cfg.BatchSize < 0 || cfg.TrainSteps < 0 || cfg.ArenaGames < 0 || cfg.Workers < 0 {
		return nil, fmt.Errorf("selfplay: negative size in config %+v", cfg)
	}
	cfg = cfg.withDefaults()
	src := newPCGSource(cfg.Seed)
	return &Trainer{
		cfg:    cfg,
		cur:    n,
		best:   n.Clone(),
		replay: newReplayQueue(cfg.ReplayCap),
		opt:    nn.NewAdam(learningRate),
		src:    src,
		rng:    rand.New(src),
	}, nil
}

// New creates a trainer like NewTrainer but panics on an invalid
// configuration; it is a convenience for tests and examples.
func New(n *net.PBQPNet, cfg Config) *Trainer {
	t, err := NewTrainer(n, cfg)
	if err != nil {
		panic(err.Error())
	}
	return t
}

// Current returns the network being trained.
func (t *Trainer) Current() *net.PBQPNet { return t.cur }

// Best returns the best player's network.
func (t *Trainer) Best() *net.PBQPNet { return t.best }

// ReplaySize returns the number of tuples in the replay queue.
func (t *Trainer) ReplaySize() int { return t.replay.len() }

// Iter returns the number of completed iterations; an interrupted
// iteration does not count until it finishes.
func (t *Trainer) Iter() int {
	if t.pending != nil {
		return t.iter - 1
	}
	return t.iter
}

// Interrupted reports whether the trainer holds a partially finished
// iteration that the next RunIteration call will resume.
func (t *Trainer) Interrupted() bool { return t.pending != nil }

func (t *Trainer) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// RunIteration executes one iteration: EpisodesPerIter self-play
// episodes, TrainSteps minibatch updates, and the arena gate.
//
// Cancelling ctx stops the iteration at the next episode boundary — the
// in-flight episode always finishes — and returns the partial stats
// with ctx's error; the trainer remembers its position, so the next
// RunIteration call (possibly after a checkpoint round trip) resumes
// the same iteration at the same episode with identical results. An
// episode that panics is logged with its reproduction seed and skipped
// rather than aborting the run. A non-context error (training
// divergence: NaN/Inf loss or weights) poisons the trainer; callers
// must not checkpoint after one.
func (t *Trainer) RunIteration(ctx context.Context) (IterStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var stats IterStats
	start := 0
	if t.pending != nil {
		stats, start = *t.pending, t.pendingEpisode
		// clear both fields: a stale pendingEpisode is ignored while
		// pending is nil, but it would leak into EncodeState and break
		// byte-identity with an uninterrupted run
		t.pending, t.pendingEpisode = nil, 0
	} else {
		t.iter++
		stats = IterStats{Iteration: t.iter, Episodes: t.cfg.EpisodesPerIter}
	}
	var mark time.Time
	lap(&mark)
	if next, err := t.runEpisodesBatch(ctx, start, &stats); err != nil {
		snap := stats
		t.pending, t.pendingEpisode = &snap, next
		return stats, err
	}
	episodes := lap(&mark)
	stats.ReplaySize = t.replay.len()
	avg, err := t.train()
	gradient := lap(&mark)
	stats.AvgLoss = avg
	if err != nil {
		return stats, err
	}
	wins, losses := t.arena()
	// Wall-clock goes to the log and nowhere else: IterStats is encoded
	// into checkpoints, which must not depend on how long anything took.
	t.logf("selfplay: phases: episodes %.3fs, gradient steps %.3fs (%.0f samples/s), arena %.3fs",
		episodes.Seconds(), gradient.Seconds(),
		float64(t.cfg.TrainSteps*t.cfg.BatchSize)/gradient.Seconds(), lap(&mark).Seconds())
	stats.ArenaWins = wins
	stats.ArenaLosses = losses
	if wins > t.cfg.ArenaWins || (t.cfg.PromoteOnTie && wins >= losses) {
		stats.Promoted = true
		t.best.CopyFrom(t.cur)
	} else {
		// discard the candidate, as the paper does
		t.cur.CopyFrom(t.best)
	}
	return stats, nil
}

// lap returns the wall-clock since *mark and moves mark to now.
func lap(mark *time.Time) time.Duration {
	// Phase wall-clock is only ever formatted into a Logf line: never into IterStats, the replay or encoded state.
	now := time.Now()
	d := now.Sub(*mark)
	*mark = now
	return d
}

// recordEpisode merges the outcome of episode e into the iteration
// stats and the replay queue. runEpisodesBatch calls it in strict
// episode order, which is what keeps the replay contents and stats
// independent of the worker count.
func (t *Trainer) recordEpisode(stats *IterStats, e int, r EpisodeResult) {
	if r.Err != nil {
		stats.Skipped++
		t.logf("selfplay: iteration %d episode %d skipped: %v", stats.Iteration, e, r.Err)
		return
	}
	switch {
	case r.Z > 0:
		stats.Wins++
	case r.Z < 0:
		stats.Losses++
	default:
		stats.Ties++
	}
	for i := range r.Samples {
		r.Samples[i].Z = r.Z
	}
	t.enqueue(r.Samples)
	stats.Samples += len(r.Samples)
}

// runEpisodesBatch plays episodes [start, EpisodesPerIter) through the
// Episodes backend, or playEpisodes when there is none, and merges the
// results in episode order. All episode seeds are pre-drawn from the
// master stream in episode order, so a completed batch leaves the stream
// where one draw per episode would. On cancellation (or a backend
// failure), the committed results cover an in-order prefix of the batch
// and the stream is rewound to exactly that prefix's seeds — so the
// returned resume position is the first episode not played, and a
// resumed run stays bit-identical. The returned error is nil only when
// the batch completed.
func (t *Trainer) runEpisodesBatch(ctx context.Context, start int, stats *IterStats) (int, error) {
	total := t.cfg.EpisodesPerIter
	if start >= total {
		return total, nil
	}
	pre, err := t.src.state()
	if err != nil {
		// the PCG state marshal cannot fail; losing it silently would
		// forfeit the rewind guarantee, so fail loudly
		panic("selfplay: snapshot master RNG: " + err.Error())
	}
	seeds := make([]int64, total-start)
	for i := range seeds {
		seeds[i] = t.rng.Int63()
	}
	backend := t.cfg.Episodes
	if backend == nil {
		backend = t.playEpisodes
	}
	results, batchErr := backend(ctx, EpisodeBatch{
		Iteration: stats.Iteration, Start: start, Seeds: seeds,
		Cur: t.cur, Best: t.best,
	})
	if len(results) > len(seeds) {
		results = results[:len(seeds)]
	}
	if batchErr == nil && len(results) < len(seeds) {
		batchErr = fmt.Errorf("selfplay: episode backend returned %d of %d results without an error", len(results), len(seeds))
	}
	for i, r := range results {
		t.recordEpisode(stats, start+i, r)
	}
	if batchErr == nil {
		return total, nil
	}
	// interrupted: rewind the master stream to exactly the seeds of the
	// committed prefix
	if err := t.src.setState(pre); err != nil {
		// The PCG state rewind cannot fail; losing it silently would
		// forfeit the bit-identical resume guarantee.
		panic("selfplay: rewind master RNG: " + err.Error())
	}
	for range results {
		t.rng.Int63()
	}
	return start + len(results), batchErr
}

// playEpisodes is the EpisodeBackend a trainer without one uses: it plays
// the batch's episodes on Workers goroutines and returns the prefix that
// par.Do claimed before ctx was done.
func (t *Trainer) playEpisodes(ctx context.Context, b EpisodeBatch) ([]EpisodeResult, error) {
	results := make([]EpisodeResult, len(b.Seeds))
	cur, best := workerNets(b.Cur, b.Best, t.cfg.Workers, len(b.Seeds))
	k := par.Do(ctx, t.cfg.Workers, len(b.Seeds), func(w, i int) {
		results[i] = runEpisode(&t.cfg, cur[w], best[w], b.Seeds[i])
	})
	if k < len(results) {
		return results[:k], ctx.Err()
	}
	return results, nil
}

// workerNets gives each of par.Do's min(workers, n) workers the pair of
// networks it plays on: worker 0 the pair it is handed, so one worker
// clones nothing, and every other worker a cloned pair of its own,
// because evaluation caches activations on the network. A game's result
// is a function of its seed and the weights alone, so which worker plays
// it does not change a bit.
func workerNets(cur, best *net.PBQPNet, workers, n int) (curs, bests []*net.PBQPNet) {
	k := max(min(workers, n), 1)
	curs, bests = make([]*net.PBQPNet, k), make([]*net.PBQPNet, k)
	curs[0], bests[0] = cur, best
	for w := 1; w < k; w++ {
		curs[w], bests[w] = cur.Clone(), best.Clone()
	}
	return curs, bests
}

// RunEpisode plays one self-play episode exactly as the trainer's own
// player does — it is the reference implementation an EpisodeBackend
// calls. Zero Config fields take the same defaults the trainer
// applies, so a backend handed the trainer's (pre-default) Config
// produces bit-identical episodes. cur and best are mutated
// only through their inference caches; they must not be shared across
// concurrent calls.
func RunEpisode(cfg Config, cur, best *net.PBQPNet, seed int64) EpisodeResult {
	cfg = cfg.withDefaults()
	return runEpisode(&cfg, cur, best, seed)
}

// runEpisode plays one self-play episode pair (best, then current, on
// the same graph) seeded by epSeed, which fully determines the episode:
// a panic anywhere inside — graph generation, MCTS, the network — is
// recovered into an error carrying epSeed so the failure is
// reproducible offline, and the master RNG stream is unaffected beyond
// the single draw that produced epSeed.
func runEpisode(cfg *Config, cur, best *net.PBQPNet, epSeed int64) (res EpisodeResult) {
	defer func() {
		if r := recover(); r != nil {
			res = EpisodeResult{Err: fmt.Errorf("episode panic (graph seed %d): %v\n%s", epSeed, r, debug.Stack())}
		}
	}()
	rng := rand.New(rand.NewSource(epSeed))
	g := cfg.Generate(rng)
	st := game.New(g, game.MakeOrder(g, cfg.Order, rng))
	baseCost, _ := playEpisode(cfg, rng, best, st, false)
	curCost, samples := playEpisode(cfg, rng, cur, st, true)
	return EpisodeResult{Z: game.CompareCosts(curCost, baseCost), Samples: samples}
}

// playEpisode colors st's graph with n from the first turn (an episode
// builds one game; its second player rewinds what the first played),
// using sampling from the MCTS policy for training runs (collect) and
// greedy argmax otherwise. It returns the achieved cost (infinite on a
// dead end) and, for training runs, the collected tuples (Z still unset).
func playEpisode(cfg *Config, rng *rand.Rand, n *net.PBQPNet, st *game.State, collect bool) (cost.Cost, []Sample) {
	for st.Turn() > 0 {
		st.Undo()
	}
	tree := mcts.New(n, st.M(), mcts.Config{})
	var samples []Sample
	for !st.Done() {
		if st.DeadEnd() {
			return cost.Inf, samples
		}
		tree.Run(st, cfg.KTrain)
		pi := tree.Policy()
		var a int
		if collect {
			samples = append(samples, Sample{View: st.Snapshot(), Pi: pi.Clone()})
			a = samplePolicy(rng, pi)
		} else {
			a = rl.Argmax(pi)
		}
		if a < 0 {
			return cost.Inf, samples
		}
		st.Play(a)
		tree.Advance(a)
	}
	return st.Acc(), samples
}

// samplePolicy draws an action from the distribution pi; it returns -1
// (treated as a dead end by the caller) if pi is all zero or contains a
// non-finite entry. Without the NaN check, a single NaN would make the
// running total NaN, every x < 0 comparison false, and the function
// would silently fall through to Argmax on a poisoned distribution.
func samplePolicy(rng *rand.Rand, pi tensor.Vec) int {
	total := 0.0
	for _, p := range pi {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return -1
		}
		total += p
	}
	if total == 0 {
		return -1
	}
	x := rng.Float64() * total
	for a, p := range pi {
		x -= p
		if x < 0 {
			return a
		}
	}
	return rl.Argmax(pi)
}

// enqueue appends samples to the replay queue, evicting the oldest
// tuples beyond the capacity (the queue tracks ReplayCap in case the
// caller adjusted it between iterations).
func (t *Trainer) enqueue(samples []Sample) {
	t.replay.setCap(t.cfg.ReplayCap)
	for _, s := range samples {
		t.replay.push(s)
	}
}

// train runs TrainSteps Adam minibatch updates over the replay queue
// and returns the average per-sample loss (including the L2 term). It
// reports an error when training has diverged — a non-finite loss or
// non-finite weights — so the caller can abort before a poisoned
// network reaches a checkpoint or the promotion gate.
func (t *Trainer) train() (float64, error) {
	if t.replay.len() == 0 {
		return 0, t.checkFinite()
	}
	// The only training-mode bracket there is: episodes and arena games
	// evaluate outside it (their clones start in inference mode), and
	// net.Evaluate panics inside it.
	t.cur.SetTraining(true)
	defer t.cur.SetTraining(false)
	if t.slots == nil {
		t.slots, t.batch = make([]net.Slot, StepSlots(t.cfg.Workers, t.cfg.BatchSize)), make([]Sample, t.cfg.BatchSize)
	}
	totalLoss := 0.0
	for step := 0; step < t.cfg.TrainSteps; step++ {
		for b := range t.batch {
			t.batch[b] = t.replay.at(t.rng.Intn(t.replay.len()))
		}
		totalLoss = GradientStep(t.cur, t.cfg.Workers, t.slots, t.batch, totalLoss)
		nn.AddL2Grad(t.cur.Params(), l2Weight)
		t.opt.Step(t.cur.Params())
	}
	avg := totalLoss/float64(t.cfg.TrainSteps*t.cfg.BatchSize) + nn.L2Penalty(t.cur.Params(), l2Weight)
	if math.IsNaN(avg) || math.IsInf(avg, 0) {
		return avg, fmt.Errorf("selfplay: training diverged at iteration %d: loss = %v", t.iter, avg)
	}
	return avg, t.checkFinite()
}

// GradientStep adds one minibatch's gradients — each sample's scaled by
// 1/len(batch) — to n's parameter gradients and returns loss plus every
// sample's loss. n must be in training mode. The minibatch goes through in
// waves of len(slots) samples (at least one), a slot each, on workers
// goroutines of which the caller's is one. A sample passes four phases:
// (A) the GCN embeds it on the slot's tape, a function of the sample and
// the weights, which nothing writes during a step; (B) pooling, torso,
// heads, loss and the heads' and torso's backward pass; (C) the slot's
// dL/dH goes back through the GCN's activations on the tape, writing no
// parameter; (D) the tape's terms are added to the GCN's parameter
// gradients. A is dealt to every goroutine. B and D are the caller's
// alone, each a loop in sample order: batch normalization's running
// statistics are a moving average over the sample stream, and every other
// sum B or D adds to — the loss, each element of each Param.G — is a
// floating-point chain whose value is the order of its terms. C is the
// other goroutines', which take each sample as its B completes; the caller
// takes what they have not whenever the next D is not yet due, and B
// touches no tensor D touches. Every addition therefore happens in the
// order of a loop over the samples calling n.Forward and n.Backward, which
// is what one slot and one worker run, and the gradients are bit-identical
// to that loop's for every workers and len(slots). Nothing spins: a
// goroutine without work is parked, and none outlives the call.
func GradientStep(n *net.PBQPNet, workers int, slots []net.Slot, batch []Sample, loss float64) float64 {
	size := float64(len(batch))
	for len(batch) > 0 {
		wave := batch[:min(len(slots), len(batch))]
		batch = batch[len(wave):]
		par.Do(context.Background(), workers, len(wave), func(_, i int) {
			n.Embed(&slots[i], wave[i].View)
		})

		ready := make(chan int, len(wave)) // samples whose B is done and C not begun
		done := make([]atomic.Bool, len(wave))
		backprop := func(i int) {
			n.Backprop(&slots[i])
			done[i].Store(true)
		}
		wait := par.Go(min(workers, len(wave))-1, func() {
			for i := range ready {
				backprop(i)
			}
		})
		for i, s := range wave {
			logits, v := n.Heads(&slots[i])
			mask := net.Mask(s.View)
			p := nn.Softmax(logits, mask)
			loss += nn.CrossEntropy(p, s.Pi) + nn.MSE(v, s.Z)
			dLogits := nn.CrossEntropyGrad(p, s.Pi, mask)
			dLogits.Scale(1 / size)
			n.HeadsBackward(&slots[i], dLogits, nn.MSEGrad(v, s.Z)/size)
			ready <- i
		}
		close(ready)
		for d := 0; d < len(wave); {
			if done[d].Load() {
				n.Accumulate(&slots[d])
				d++
			} else if i, ok := <-ready; ok {
				backprop(i)
			} else {
				wait() // a helper has sample d
			}
		}
		wait()
	}
	return loss
}

// StepSlots is how many slots GradientStep wants for minibatches of
// batchSize samples: one for a lone goroutine, which then takes each
// sample through all four phases on a tape that stays in cache, and one
// per sample for more, so that a wave is a whole minibatch and the
// goroutines are started twice a step.
func StepSlots(workers, batchSize int) int {
	if workers <= 1 {
		return 1
	}
	return batchSize
}

// checkFinite scans the current network for NaN/Inf weights.
func (t *Trainer) checkFinite() error {
	for _, p := range t.cur.Params() {
		for _, w := range p.W {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("selfplay: training diverged at iteration %d: parameter %q has non-finite weights", t.iter, p.Name)
			}
		}
	}
	return nil
}

// arena plays ArenaGames fresh graphs with both networks (greedy
// inference runs) and returns how many the current network wins and
// loses outright. Like an episode, each game is fully determined by a
// seed pre-drawn from the master stream, so the games fan out over
// Workers goroutines without perturbing the stream.
func (t *Trainer) arena() (wins, losses int) {
	seeds := make([]int64, t.cfg.ArenaGames)
	for i := range seeds {
		seeds[i] = t.rng.Int63()
	}
	cmps := make([]int, len(seeds))
	cur, best := workerNets(t.cur, t.best, t.cfg.Workers, len(seeds))
	par.Do(context.Background(), t.cfg.Workers, len(seeds), func(w, i int) {
		cmps[i] = arenaGame(&t.cfg, cur[w], best[w], seeds[i])
	})
	for _, c := range cmps {
		switch c {
		case 1:
			wins++
		case -1:
			losses++
		}
	}
	return wins, losses
}

// arenaGame plays one evaluation game, fully determined by seed, and
// returns the comparison of the current network's cost against the best
// network's (+1 current wins, -1 loses, 0 tie).
func arenaGame(cfg *Config, cur, best *net.PBQPNet, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	g := cfg.Generate(rng)
	st := game.New(g, game.MakeOrder(g, cfg.Order, rng))
	curCost, _ := playEpisode(cfg, rng, cur, st, false)
	bestCost, _ := playEpisode(cfg, rng, best, st, false)
	return int(game.CompareCosts(curCost, bestCost))
}
