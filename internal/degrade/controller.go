package degrade

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vdsms/internal/telemetry"
)

var (
	telShedLevel = telemetry.Default.Gauge("vcd_shed_level",
		"Current overload shed level (0 = full fidelity, 3 = maximum shedding).")
	telShedTransitions = telemetry.Default.Counter("vcd_shed_transitions_total",
		"Shed level changes (both directions) decided by the overload controller.")
)

// MaxLevel is the highest shed level the controller will request. Levels
// are cumulative: each one sheds strictly more work than the one below.
//
//	0 — full fidelity, nothing shed
//	1 — extract shed: low-motion key frames reuse the previous cell id
//	2 — adds decode shed: low-delta frames skip entropy decode entirely
//	3 — aggressive decode shed for severe overload
const MaxLevel = 3

// ControllerConfig tunes the overload control loop. The zero value is
// replaced field-by-field with the defaults below.
type ControllerConfig struct {
	// Budget is the per-window real-time budget: the latency the p99 of
	// recent window observations must stay under. Zero disables the loop
	// (Observe records nothing and the level stays 0).
	Budget time.Duration

	// RingSize is how many recent observations the p99 is computed over.
	// Default 32 — at that size the nearest-rank p99 is the ring maximum,
	// which is the right amount of paranoia for a real-time bound.
	RingSize int

	// MinSamples is how many observations must accumulate after a level
	// change before the loop evaluates again. Default 8. This is the
	// settling time: it keeps one stale slow window from the previous
	// level immediately re-triggering escalation.
	MinSamples int

	// UpStreak is how many consecutive breaching evaluations raise the
	// level. Default 2.
	UpStreak int

	// DownStreak is how many consecutive evaluations below LowWater×Budget
	// lower the level. Default 16 — recovery is deliberately much slower
	// than escalation so the level does not oscillate across the boundary.
	DownStreak int

	// LowWater is the fraction of Budget the p99 must clear before the
	// down-streak counts. Default 0.55: the hold band must be wide enough
	// to cover the cost step between adjacent shed levels (roughly 2× —
	// level 3 halves the cost of level 2), or the loop would de-escalate
	// from a comfortably-under-budget level straight into one that
	// breaches, and oscillate.
	LowWater float64
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.RingSize <= 0 {
		c.RingSize = 32
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.MinSamples > c.RingSize {
		c.MinSamples = c.RingSize
	}
	if c.UpStreak <= 0 {
		c.UpStreak = 2
	}
	if c.DownStreak <= 0 {
		c.DownStreak = 16
	}
	if c.LowWater <= 0 || c.LowWater >= 1 {
		c.LowWater = 0.55
	}
	return c
}

// Controller is the closed-loop overload controller: Observe is called once
// per completed basic window with the window's total ingest latency, and
// Level (lock-free, read from the hot path before every frame decision)
// reports the shed level the pipeline should run at.
//
// All methods are safe for concurrent use — one controller is shared by a
// detector lineage, so concurrent streams feed one loop and shed together
// (overload is a process condition, not a per-stream one).
type Controller struct {
	cfg ControllerConfig

	level  atomic.Int32
	budget atomic.Int64 // nanoseconds; mutable at runtime via SetBudget

	mu         sync.Mutex
	ring       []time.Duration // observation window, cleared on level change
	ringN      int             // valid entries in ring (≤ len(ring))
	ringAt     int             // next write position
	upStreak   int
	downStreak int

	// Steady-state digest: a uniform reservoir sample (Algorithm R with a
	// deterministic LCG) of every observation since the last level change.
	// Whole-run percentiles are dominated by the slow escalation-phase
	// windows, so overload reporting wants "the distribution once the level
	// settled" — that is exactly the digest content whenever the level has
	// stopped moving. The reservoir keeps raw durations, so RunP99 is an
	// exact nearest-rank quantile of the sample rather than a
	// bucket-interpolated estimate (bucket edges are up to 2.5× apart —
	// far too coarse to compare against a real-time budget).
	steadyRes   []time.Duration
	steadyN     int64
	steadySum   float64
	resRng      uint64
	transitions int64 // total level changes (both directions)
	observed    int64 // total observations ever
	shedWindows int64 // observations taken while level > 0
}

// steadyReservoir is the reservoir capacity: at 256 samples the nearest-rank
// p99 sits 2–3 observations from the top, enough resolution for a tail
// estimate while keeping Snapshot cheap.
const steadyReservoir = 256

// NewController builds a controller from cfg (zero fields take defaults).
func NewController(cfg ControllerConfig) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:    cfg,
		ring:   make([]time.Duration, cfg.RingSize),
		resRng: 0x9E3779B97F4A7C15,
	}
	c.budget.Store(int64(cfg.Budget))
	return c
}

// Level returns the current shed level in [0, MaxLevel]. Lock-free.
func (c *Controller) Level() int { return int(c.level.Load()) }

// Budget returns the current real-time budget (zero = loop disabled).
func (c *Controller) Budget() time.Duration { return time.Duration(c.budget.Load()) }

// SetBudget replaces the real-time budget at runtime and restarts the
// evidence window. Setting zero disables the loop and resets the level.
func (c *Controller) SetBudget(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.budget.Store(int64(d))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clearEvidenceLocked()
	if d == 0 && c.level.Load() != 0 {
		c.setLevelLocked(0)
	}
}

// Reset returns the controller to level 0 with no accumulated evidence —
// called when monitoring (re)starts so a previous stream's overload state
// does not bleed into the next.
func (c *Controller) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.level.Store(0)
	telShedLevel.Set(0)
	c.clearEvidenceLocked()
	c.upStreak, c.downStreak = 0, 0
}

// clearEvidenceLocked drops the ring and the steady-state digest.
func (c *Controller) clearEvidenceLocked() {
	c.ringN, c.ringAt = 0, 0
	c.steadyRes = c.steadyRes[:0]
	c.steadyN = 0
	c.steadySum = 0
}

// Observe feeds one completed window's total ingest latency into the loop
// and returns the (possibly changed) shed level.
func (c *Controller) Observe(total time.Duration) int {
	budget := time.Duration(c.budget.Load())
	if budget <= 0 {
		return int(c.level.Load())
	}

	c.mu.Lock()
	defer c.mu.Unlock()

	c.observed++
	if c.level.Load() > 0 {
		c.shedWindows++
	}

	c.ring[c.ringAt] = total
	c.ringAt = (c.ringAt + 1) % len(c.ring)
	if c.ringN < len(c.ring) {
		c.ringN++
	}
	c.digestLocked(total)

	if c.ringN < c.cfg.MinSamples {
		return int(c.level.Load())
	}

	p99 := c.ringP99Locked()
	level := int(c.level.Load())
	switch {
	case p99 > budget:
		c.downStreak = 0
		c.upStreak++
		if c.upStreak >= c.cfg.UpStreak && level < MaxLevel {
			level++
			c.changeLevelLocked(level)
		}
	case p99 < time.Duration(float64(budget)*c.cfg.LowWater):
		c.upStreak = 0
		c.downStreak++
		if c.downStreak >= c.cfg.DownStreak && level > 0 {
			level--
			c.changeLevelLocked(level)
		}
	default:
		// Between the waters: hold the level, decay both streaks.
		c.upStreak, c.downStreak = 0, 0
	}
	return level
}

// changeLevelLocked commits a level change and restarts evidence collection
// so the next decision is based entirely on windows run at the new level.
func (c *Controller) changeLevelLocked(level int) {
	c.setLevelLocked(level)
	c.upStreak, c.downStreak = 0, 0
	c.clearEvidenceLocked()
}

// setLevelLocked stores a new level, counts the transition and publishes
// both to the vcd_shed_* series.
func (c *Controller) setLevelLocked(level int) {
	c.level.Store(int32(level))
	c.transitions++
	telShedLevel.Set(float64(level))
	telShedTransitions.Inc()
}

// digestLocked adds one observation to the steady-state reservoir.
func (c *Controller) digestLocked(total time.Duration) {
	c.steadyN++
	c.steadySum += total.Seconds()
	if len(c.steadyRes) < steadyReservoir {
		c.steadyRes = append(c.steadyRes, total)
		return
	}
	// Algorithm R: replace a uniformly chosen slot with probability
	// reservoir/steadyN, via a deterministic LCG (the controller must not
	// perturb or depend on global randomness).
	c.resRng = c.resRng*6364136223846793005 + 1442695040888963407
	if j := int(c.resRng % uint64(c.steadyN)); j < steadyReservoir {
		c.steadyRes[j] = total
	}
}

// Snapshot is a point-in-time view of the control loop for /stats,
// experiment reports and tests.
type Snapshot struct {
	Level       int           // current shed level
	Budget      time.Duration // current budget (0 = disabled)
	RingP99     time.Duration // p99 of the current evidence ring
	RunP99      time.Duration // p99 since the last level change (steady state)
	RunMean     time.Duration // mean since the last level change
	RunWindows  int64         // observations since the last level change
	Observed    int64         // observations since Reset
	ShedWindows int64         // observations taken at level > 0
	Transitions int64         // level changes since Reset
}

// Snapshot returns the current control-loop state.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Level:       int(c.level.Load()),
		Budget:      time.Duration(c.budget.Load()),
		Observed:    c.observed,
		ShedWindows: c.shedWindows,
		Transitions: c.transitions,
	}
	if c.ringN > 0 {
		s.RingP99 = c.ringP99Locked()
	}
	s.RunWindows = c.steadyN
	if c.steadyN > 0 {
		buf := make([]time.Duration, len(c.steadyRes))
		copy(buf, c.steadyRes)
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		rank := (99*len(buf) + 99) / 100 // ceil(0.99 n)
		if rank < 1 {
			rank = 1
		}
		s.RunP99 = buf[rank-1]
		s.RunMean = time.Duration(c.steadySum / float64(c.steadyN) * float64(time.Second))
	}
	return s
}

// ringP99Locked computes the nearest-rank p99 of the valid ring entries.
// At ring sizes ≤ 100 the 0.99 rank is the maximum, so this is a scan.
func (c *Controller) ringP99Locked() time.Duration {
	rank := (99*c.ringN + 99) / 100 // ceil(0.99 n)
	if rank >= c.ringN {
		var max time.Duration
		for i := 0; i < c.ringN; i++ {
			if c.ring[i] > max {
				max = c.ring[i]
			}
		}
		return max
	}
	// General nearest-rank via partial selection; n is ≤ RingSize so an
	// insertion pass over a small copy is fine.
	buf := make([]time.Duration, c.ringN)
	copy(buf, c.ring[:c.ringN])
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && buf[j] < buf[j-1]; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	return buf[rank-1]
}
