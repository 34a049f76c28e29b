package env

import (
	"math"

	"oselmrl/internal/rng"
)

// Lander is a simplified 2-D lunar-lander task in the spirit of Gym's
// LunarLander-v2, built for the paper's future-work sweep: a harder
// continuous-state task than CartPole with a 6-D observation and shaped
// rewards. The craft starts above a landing pad at the origin, subject to
// gravity; discrete thrusters steer it to a soft, upright touchdown.
//
// Observation: [x, y, vx, vy, angle, vAngle] (pad-relative units).
// Actions: 0 = coast, 1 = fire left thruster (rotates right, pushes
// right), 2 = fire main engine (thrust along the body axis), 3 = fire
// right thruster.
// Reward: potential-based shaping toward the pad plus fuel costs, +100 on
// a safe landing, -100 on a crash or flying out of bounds.
type Lander struct {
	rng *rng.RNG

	x, y, vx, vy, angle, vAngle float64
	steps                       int
	done                        bool
	landed                      bool
	prevPotential               float64
}

const (
	ldGravity    = -1.0
	ldMainThrust = 2.2
	ldSideThrust = 0.45
	ldSideTorque = 1.6
	ldDT         = 0.05
	ldMaxSteps   = 400
	// Landing tolerances.
	ldPadHalfWidth = 0.3
	ldMaxLandVel   = 0.6
	ldMaxLandAngle = 0.35
	// World bounds.
	ldBoundX = 2.0
	ldBoundY = 2.2
)

// NewLander returns a seeded lander.
func NewLander(seed uint64) *Lander { return &Lander{rng: rng.New(seed)} }

// Name implements Env.
func (l *Lander) Name() string { return "Lander-2D" }

// ObservationSize implements Env.
func (l *Lander) ObservationSize() int { return 6 }

// ActionCount implements Env.
func (l *Lander) ActionCount() int { return 4 }

// MaxSteps implements Env.
func (l *Lander) MaxSteps() int { return ldMaxSteps }

// Reset implements Env: start high above the pad with a random lateral
// offset and drift.
func (l *Lander) Reset() []float64 {
	l.x = l.rng.Uniform(-0.6, 0.6)
	l.y = l.rng.Uniform(1.4, 1.8)
	l.vx = l.rng.Uniform(-0.2, 0.2)
	l.vy = l.rng.Uniform(-0.2, 0)
	l.angle = l.rng.Uniform(-0.1, 0.1)
	l.vAngle = l.rng.Uniform(-0.1, 0.1)
	l.steps = 0
	l.done = false
	l.landed = false
	l.prevPotential = l.potential()
	return l.obs()
}

func (l *Lander) obs() []float64 {
	return []float64{l.x, l.y, l.vx, l.vy, l.angle, l.vAngle}
}

// potential is the shaping function: closer, slower and more upright is
// better. Potential-based shaping keeps the optimal policy unchanged.
func (l *Lander) potential() float64 {
	dist := math.Hypot(l.x, l.y)
	speed := math.Hypot(l.vx, l.vy)
	return -(1.2*dist + 0.6*speed + 0.4*math.Abs(l.angle))
}

// Step implements Env.
func (l *Lander) Step(action int) ([]float64, float64, bool) {
	if l.done {
		return l.obs(), 0, true
	}
	if action < 0 || action > 3 {
		panic("env: Lander action must be in [0,3]")
	}
	fuel := 0.0
	ax, ay, aAngle := 0.0, ldGravity, 0.0
	switch action {
	case 1: // left thruster: pushes craft rightward, rotates clockwise
		ax += ldSideThrust * math.Cos(l.angle)
		ay += ldSideThrust * math.Sin(l.angle)
		aAngle -= ldSideTorque
		fuel = 0.03
	case 2: // main engine: thrust along the body's up axis
		ax += -ldMainThrust * math.Sin(l.angle)
		ay += ldMainThrust * math.Cos(l.angle)
		fuel = 0.1
	case 3: // right thruster
		ax += -ldSideThrust * math.Cos(l.angle)
		ay += -ldSideThrust * math.Sin(l.angle)
		aAngle += ldSideTorque
		fuel = 0.03
	}
	l.vx += ax * ldDT
	l.vy += ay * ldDT
	l.vAngle += aAngle * ldDT
	l.x += l.vx * ldDT
	l.y += l.vy * ldDT
	l.angle += l.vAngle * ldDT
	l.steps++

	// Shaping reward: potential difference minus fuel.
	pot := l.potential()
	reward := (pot - l.prevPotential) - fuel
	l.prevPotential = pot

	switch {
	case l.y <= 0:
		// Touchdown: safe if on the pad, slow, and upright.
		speed := math.Hypot(l.vx, l.vy)
		safe := math.Abs(l.x) <= ldPadHalfWidth && speed <= ldMaxLandVel &&
			math.Abs(l.angle) <= ldMaxLandAngle
		l.done = true
		if safe {
			l.landed = true
			reward += 100
		} else {
			reward -= 100
		}
	case math.Abs(l.x) > ldBoundX || l.y > ldBoundY:
		l.done = true
		reward -= 100
	case l.steps >= ldMaxSteps:
		l.done = true
	}
	return l.obs(), reward, l.done
}

// Landed reports whether the last episode ended in a safe landing.
func (l *Lander) Landed() bool { return l.landed }

// ObservationBounds implements BoundsReporter (loose physical bounds).
func (l *Lander) ObservationBounds() (low, high []float64) {
	inf := math.Inf(1)
	high = []float64{ldBoundX, ldBoundY, inf, inf, inf, inf}
	low = []float64{-ldBoundX, -0.5, -inf, -inf, -inf, -inf}
	return low, high
}

// State exposes the raw pose for tests.
func (l *Lander) State() (x, y, vx, vy, angle, vAngle float64) {
	return l.x, l.y, l.vx, l.vy, l.angle, l.vAngle
}

// SetState overrides the pose (tests).
func (l *Lander) SetState(x, y, vx, vy, angle, vAngle float64) {
	l.x, l.y, l.vx, l.vy, l.angle, l.vAngle = x, y, vx, vy, angle, vAngle
	l.done = false
	l.prevPotential = l.potential()
}

// CliffWalk is Sutton & Barto's cliff-walking gridworld (Example 6.6): a
// 4×12 grid where the bottom row between start and goal is a cliff.
// Stepping into the cliff costs -100 and teleports back to the start;
// every other move costs -1. It is the classic task separating Q-learning
// (optimal, risky path) from SARSA (safe path), used here to exercise the
// Q-network agents on a sparse-penalty task.
//
// Observation: [row/3, col/11]. Actions: 0 up, 1 right, 2 down, 3 left.
type CliffWalk struct {
	row, col int
	steps    int
	done     bool
}

// NewCliffWalk returns the standard 4×12 cliff world.
func NewCliffWalk() *CliffWalk { return &CliffWalk{} }

const (
	cwRows     = 4
	cwCols     = 12
	cwMaxSteps = 300
)

// Name implements Env.
func (c *CliffWalk) Name() string { return "CliffWalking" }

// ObservationSize implements Env.
func (c *CliffWalk) ObservationSize() int { return 2 }

// ActionCount implements Env.
func (c *CliffWalk) ActionCount() int { return 4 }

// MaxSteps implements Env.
func (c *CliffWalk) MaxSteps() int { return cwMaxSteps }

// Reset implements Env: start at the bottom-left corner.
func (c *CliffWalk) Reset() []float64 {
	c.row, c.col = cwRows-1, 0
	c.steps = 0
	c.done = false
	return c.obs()
}

func (c *CliffWalk) obs() []float64 {
	return []float64{float64(c.row) / (cwRows - 1), float64(c.col) / (cwCols - 1)}
}

// Step implements Env.
func (c *CliffWalk) Step(action int) ([]float64, float64, bool) {
	if c.done {
		return c.obs(), 0, true
	}
	r, col := c.row, c.col
	switch action {
	case 0:
		r--
	case 1:
		col++
	case 2:
		r++
	case 3:
		col--
	default:
		panic("env: CliffWalk action must be in [0,3]")
	}
	if r < 0 {
		r = 0
	}
	if r >= cwRows {
		r = cwRows - 1
	}
	if col < 0 {
		col = 0
	}
	if col >= cwCols {
		col = cwCols - 1
	}
	c.steps++
	reward := -1.0
	switch {
	case r == cwRows-1 && col > 0 && col < cwCols-1:
		// The cliff: big penalty, teleport to start, episode continues.
		reward = -100
		r, col = cwRows-1, 0
	case r == cwRows-1 && col == cwCols-1:
		c.done = true // goal
	}
	if c.steps >= cwMaxSteps {
		c.done = true
	}
	c.row, c.col = r, col
	return c.obs(), reward, c.done
}

// Position returns the current cell (tests).
func (c *CliffWalk) Position() (row, col int) { return c.row, c.col }
