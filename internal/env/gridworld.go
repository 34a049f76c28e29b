package env

import (
	"fmt"

	"oselmrl/internal/rng"
)

// GridWorld is a deterministic N×N navigation task with optional obstacle
// cells: the agent starts in the top-left corner and must reach the
// bottom-right goal. It provides a fully deterministic, quickly solvable
// environment for agent unit tests and the future-work sweep: its optimal
// policy is known analytically (2(N-1) moves on an obstacle-free grid), so
// a correct agent's greedy path can be checked exactly.
//
// Observation: [row/(N-1), col/(N-1)] normalized to [0,1].
// Actions: 0 = up, 1 = right, 2 = down, 3 = left.
// Reward: -0.01 per move, +1 at the goal, -1 when hitting an obstacle
// (episode ends).
type GridWorld struct {
	rng       *rng.RNG
	n         int
	obstacles map[[2]int]bool
	row, col  int
	steps     int
	done      bool
	maxSteps  int
	// randomStart scatters the start cell; default is the fixed corner.
	randomStart bool
}

// NewGridWorld returns an n×n grid world. Obstacles are optional cell
// coordinates; the start (0,0) and goal (n-1,n-1) cells must stay free.
func NewGridWorld(n int, seed uint64, obstacles ...[2]int) *GridWorld {
	if n < 2 {
		panic("env: GridWorld needs n >= 2")
	}
	obs := make(map[[2]int]bool, len(obstacles))
	for _, o := range obstacles {
		if (o == [2]int{0, 0}) || (o == [2]int{n - 1, n - 1}) {
			panic(fmt.Sprintf("env: obstacle %v blocks start or goal", o))
		}
		if o[0] < 0 || o[0] >= n || o[1] < 0 || o[1] >= n {
			panic(fmt.Sprintf("env: obstacle %v outside %dx%d grid", o, n, n))
		}
		obs[o] = true
	}
	return &GridWorld{rng: rng.New(seed), n: n, obstacles: obs, maxSteps: 4 * n * n}
}

// SetRandomStart scatters episode starts over free non-goal cells.
func (g *GridWorld) SetRandomStart(on bool) { g.randomStart = on }

// Name implements Env.
func (g *GridWorld) Name() string { return fmt.Sprintf("GridWorld-%dx%d", g.n, g.n) }

// ObservationSize implements Env.
func (g *GridWorld) ObservationSize() int { return 2 }

// ActionCount implements Env.
func (g *GridWorld) ActionCount() int { return 4 }

// MaxSteps implements Env.
func (g *GridWorld) MaxSteps() int { return g.maxSteps }

// Reset implements Env.
func (g *GridWorld) Reset() []float64 {
	g.row, g.col = 0, 0
	if g.randomStart {
		for {
			r, c := g.rng.Intn(g.n), g.rng.Intn(g.n)
			if !g.obstacles[[2]int{r, c}] && !(r == g.n-1 && c == g.n-1) {
				g.row, g.col = r, c
				break
			}
		}
	}
	g.steps = 0
	g.done = false
	return g.obs()
}

func (g *GridWorld) obs() []float64 {
	d := float64(g.n - 1)
	return []float64{float64(g.row) / d, float64(g.col) / d}
}

// Step implements Env.
func (g *GridWorld) Step(action int) ([]float64, float64, bool) {
	if g.done {
		return g.obs(), 0, true
	}
	r, c := g.row, g.col
	switch action {
	case 0:
		r--
	case 1:
		c++
	case 2:
		r++
	case 3:
		c--
	default:
		panic("env: GridWorld action must be in [0,3]")
	}
	// Moves off the board bounce back (stay in place).
	if r < 0 || r >= g.n || c < 0 || c >= g.n {
		r, c = g.row, g.col
	}
	g.steps++
	reward := -0.01
	switch {
	case g.obstacles[[2]int{r, c}]:
		g.done = true
		reward = -1
	case r == g.n-1 && c == g.n-1:
		g.done = true
		reward = 1
	case g.steps >= g.maxSteps:
		g.done = true
	}
	g.row, g.col = r, c
	return g.obs(), reward, g.done
}

// Position returns the current cell (tests).
func (g *GridWorld) Position() (row, col int) { return g.row, g.col }
