package leela

import (
	"math"
	"math/rand"

	"repro/internal/perf"
)

// Synthetic address bases for the modeled hierarchy.
const (
	treeBase  = 0x30_0000_0000
	boardAddr = 0x31_0000_0000
)

// mctsNode is one UCT tree node.
type mctsNode struct {
	move     int
	visits   int32
	wins     int32 // from the perspective of the player who made move
	children []*mctsNode
	expanded bool
}

// Engine plays moves with fixed-simulation MCTS.
type Engine struct {
	rng        *rand.Rand
	Sims       int // simulations per move (fixed, as in the benchmark)
	maxPlayout int
	p          *perf.Profiler
	// Playouts counts completed playouts (work metric).
	Playouts uint64
	// working is the engine-owned simulation board, reset in place from the
	// root position each simulate call instead of cloning per simulation.
	working *Board
	// moveBuf backs playout's legal-move lists across moves and playouts.
	moveBuf []int
	// pathBuf backs simulate's selection path.
	pathBuf []*mctsNode
}

// NewEngine returns an engine with the given per-move simulation budget.
func NewEngine(sims int, seed int64, p *perf.Profiler) *Engine {
	e := &Engine{Sims: sims}
	e.Reset(seed, p)
	return e
}

// Reset returns the engine to its just-constructed state — fresh rng from
// seed, zero playout count — while keeping its simulation scratch (working
// board, move and path buffers), whose contents never influence results. A
// reset engine plays identically to a fresh NewEngine with the same seed.
func (e *Engine) Reset(seed int64, p *perf.Profiler) {
	e.rng = rand.New(rand.NewSource(seed))
	e.p = p
	e.Playouts = 0
	if p != nil {
		p.SetFootprint("uct_select", 3<<10)
		p.SetFootprint("playout", 5<<10)
		p.SetFootprint("score_game", 2<<10)
		p.SetFootprint("play_move", 3<<10)
	}
}

// legalMoves lists non-eye-filling legal points (plus pass when none). The
// per-point verdicts feed the profiler's branch event stream.
func (e *Engine) legalMoves(b *Board, c Color, buf []int) []int {
	buf = buf[:0]
	for p := 0; p < b.Size*b.Size; p++ {
		if b.points[p] != Vacant || b.isEyeLike(p, c) {
			continue
		}
		legal := b.legalVacant(p, c)
		if e.p != nil {
			// Fused ops+branch, then the load: the three event channels are
			// independent, so hoisting the branch past the load is
			// Report-invariant (DESIGN.md §10).
			e.p.OpsBranch(3, 200+uint64(p), legal)
			e.p.Load(boardAddr + uint64(p)*2)
		}
		if legal {
			buf = append(buf, p)
		}
	}
	return buf
}

// playout plays random moves to the end and returns the winner.
func (e *Engine) playout(b *Board, toMove Color) Color {
	if e.p != nil {
		e.p.Enter("playout")
		defer e.p.Leave()
	}
	maxMoves := 3 * b.Size * b.Size
	passes := 0
	for mv := 0; mv < maxMoves && passes < 2; mv++ {
		moves := e.legalMoves(b, toMove, e.moveBuf)
		e.moveBuf = moves
		if len(moves) == 0 {
			passes++
			_, _ = b.Play(PassMove, toMove)
		} else {
			passes = 0
			p := moves[e.rng.Intn(len(moves))]
			if _, err := b.Play(p, toMove); err != nil {
				// Race with ko bookkeeping: treat as pass.
				passes++
			}
			if e.p != nil {
				e.p.Ops(8)
				e.p.Store(boardAddr + uint64(p)*2)
			}
		}
		toMove = toMove.Opponent()
	}
	e.Playouts++
	if e.p != nil {
		e.p.Enter("score_game")
	}
	black, white := b.Score()
	if e.p != nil {
		e.p.Ops(uint64(b.Size * b.Size))
		e.p.Leave()
	}
	// 7.5 komi favors white on ties.
	if float64(black) > float64(white)+7.5 {
		return Black
	}
	return White
}

// uctChild selects the best child by the UCT formula.
func (e *Engine) uctChild(n *mctsNode) *mctsNode {
	if e.p != nil {
		e.p.Enter("uct_select")
		defer e.p.Leave()
	}
	var best *mctsNode
	bestVal := math.Inf(-1)
	logN := math.Log(float64(n.visits + 1))
	for i, c := range n.children {
		var val float64
		if c.visits == 0 {
			val = 10 + e.rng.Float64()
		} else {
			val = float64(c.wins)/float64(c.visits) +
				1.2*math.Sqrt(logN/float64(c.visits))
		}
		better := val > bestVal
		if e.p != nil {
			e.p.OpsBranch(6, 21, better)
			e.p.LongOps(1) // sqrt/log
			e.p.Load(treeBase + uint64(i)*32)
		}
		if better {
			bestVal = val
			best = c
		}
	}
	return best
}

// simulate runs one MCTS iteration from the root position.
func (e *Engine) simulate(root *mctsNode, b *Board, toMove Color) {
	// Reuse the engine's working board: CopyFrom resets it to the root
	// position in place, so simulations allocate no board state.
	if e.working == nil || e.working.Size != b.Size {
		e.working = b.Clone()
	} else {
		e.working.CopyFrom(b)
	}
	working := e.working
	path := append(e.pathBuf[:0], root)
	node := root
	color := toMove
	// Selection + expansion.
	for node.expanded && len(node.children) > 0 {
		node = e.uctChild(node)
		path = append(path, node)
		if node.move != PassMove {
			_, _ = working.Play(node.move, color)
		}
		color = color.Opponent()
	}
	if !node.expanded {
		moves := e.legalMoves(working, color, e.moveBuf)
		e.moveBuf = moves
		node.expanded = true
		for _, m := range moves {
			node.children = append(node.children, &mctsNode{move: m})
		}
		if len(moves) == 0 {
			node.children = append(node.children, &mctsNode{move: PassMove})
		}
		if e.p != nil {
			e.p.Ops(uint64(len(node.children)) * 4)
			e.p.Store(treeBase + uint64(len(path))*32)
		}
	}
	winner := e.playout(working, color)
	// Backpropagate: a node's wins are from the mover's perspective.
	moverColor := toMove
	for _, n := range path {
		n.visits++
		// n.move was played by the opponent of the color to move at n.
		if winner == moverColor.Opponent() {
			n.wins++
		}
		moverColor = moverColor.Opponent()
	}
	e.pathBuf = path[:0]
}

// BestMove runs the fixed simulation budget and returns the most-visited
// move for toMove.
func (e *Engine) BestMove(b *Board, toMove Color) int {
	root := &mctsNode{move: PassMove}
	for i := 0; i < e.Sims; i++ {
		e.simulate(root, b, toMove)
	}
	best := PassMove
	bestVisits := int32(-1)
	for _, c := range root.children {
		if c.visits > bestVisits {
			bestVisits = c.visits
			best = c.move
		}
	}
	return best
}

// PlayToEnd continues the game from the given position, playing both sides
// with the engine until two consecutive passes (or a move cap), and returns
// the final score.
func (e *Engine) PlayToEnd(b *Board, toMove Color) (black, white int, moves int) {
	passes := 0
	cap := 2 * b.Size * b.Size
	for moves = 0; moves < cap && passes < 2; moves++ {
		m := e.BestMove(b, toMove)
		if e.p != nil {
			e.p.Enter("play_move")
		}
		if m == PassMove {
			passes++
		} else {
			passes = 0
		}
		_, _ = b.Play(m, toMove)
		if e.p != nil {
			e.p.Ops(16)
			e.p.Leave()
		}
		toMove = toMove.Opponent()
	}
	black, white = b.Score()
	return black, white, moves
}
