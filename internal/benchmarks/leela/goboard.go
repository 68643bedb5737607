// Package leela reproduces 541.leela_r: a Go-playing engine that takes an
// incomplete game (board state plus move history) and plays it to the end
// with a fixed number of Monte-Carlo tree-search simulations per move
// (Section IV-A). The Alberta workloads' NNGS archive games are replaced by
// deterministic self-play game prefixes; the culling script that removes
// moves from the end of each game is reproduced as CullMoves.
package leela

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Color of a point.
type Color int8

// Point states.
const (
	Vacant Color = iota
	Black
	White
)

// Opponent returns the other player.
func (c Color) Opponent() Color {
	switch c {
	case Black:
		return White
	case White:
		return Black
	default:
		return Vacant
	}
}

// String names the color.
func (c Color) String() string {
	switch c {
	case Black:
		return "black"
	case White:
		return "white"
	default:
		return "vacant"
	}
}

// PassMove is the move value representing a pass.
const PassMove = -1

// Board is a Go position with simple-ko tracking and incrementally
// maintained strings (maximal orthogonally connected same-color groups), so
// legality and capture tests need no flood fill. The string design follows
// Leela's FastBoard: Play updates the strings in place.
type Board struct {
	Size   int
	points []Color
	// koPoint is the point forbidden by simple ko (-1 when none).
	koPoint int
	// Captures by each player (index by Color).
	captures [3]int
	// scratch buffers for Score's region flood fill.
	visited []int32
	stamp   int32
	queue   []int
	// Precomputed neighbor table: nbr[p*4 : p*4+nbrN[p]] are p's orthogonal
	// neighbors in up/down/left/right order (see adj). Immutable after
	// NewBoard; shared by clones.
	nbr  []int16
	nbrN []uint8
	// String state, valid at occupied points: head[p] is the representative
	// stone of p's string and next[p] links the string's stones into a ring.
	// strs is indexed by head and meaningful only there.
	head []int16
	next []int16
	strs []goString
}

// goString is the per-string state kept at the string's head. Liberties
// are counted as pseudo-liberties: one per (stone, vacant neighbor)
// adjacency, so a liberty shared by k stones counts k times. sumV and sumV2
// sum v and v² over the pseudo-liberties, with v = liberty point + 1.
type goString struct {
	size  int32
	plib  int32
	sumV  int32
	sumV2 int64
}

func (s *goString) addLib(v int32) {
	s.plib++
	s.sumV += v
	s.sumV2 += int64(v) * int64(v)
}

func (s *goString) removeLib(v int32) {
	s.plib--
	s.sumV -= v
	s.sumV2 -= int64(v) * int64(v)
}

// atari reports whether a string with at least one liberty has exactly one
// distinct liberty. By Cauchy–Schwarz, plib·Σv² ≥ (Σv)² with equality iff
// every pseudo-liberty has the same v, i.e. they are all the same point
// (DESIGN.md §10).
func (s *goString) atari() bool {
	return int64(s.plib)*s.sumV2 == int64(s.sumV)*int64(s.sumV)
}

// NewBoard returns an empty board of the given size (9, 13 or 19 in the
// workloads; any size ≥ 3 is accepted).
func NewBoard(size int) (*Board, error) {
	if size < 3 || size > 25 {
		return nil, fmt.Errorf("leela: unsupported board size %d", size)
	}
	n := size * size
	b := &Board{
		Size:    size,
		points:  make([]Color, n),
		koPoint: -1,
		visited: make([]int32, n),
		nbr:     make([]int16, n*4),
		nbrN:    make([]uint8, n),
		head:    make([]int16, n),
		next:    make([]int16, n),
		strs:    make([]goString, n),
	}
	for p := 0; p < n; p++ {
		r, c := p/size, p%size
		k := p * 4
		if r > 0 {
			b.nbr[k] = int16(p - size)
			k++
		}
		if r < size-1 {
			b.nbr[k] = int16(p + size)
			k++
		}
		if c > 0 {
			b.nbr[k] = int16(p - 1)
			k++
		}
		if c < size-1 {
			b.nbr[k] = int16(p + 1)
			k++
		}
		b.nbrN[p] = uint8(k - p*4)
	}
	return b, nil
}

// At returns the point's color.
func (b *Board) At(p int) Color { return b.points[p] }

// Captures reports stones captured by c.
func (b *Board) Captures(c Color) int { return b.captures[c] }

// adj returns p's orthogonal neighbors.
func (b *Board) adj(p int) []int16 {
	k := p * 4
	return b.nbr[k : k+int(b.nbrN[p])]
}

// nextStamp advances the visited-marking stamp, clearing the visited array
// on (unlikely) wraparound so long-lived boards stay correct.
func (b *Board) nextStamp() {
	if b.stamp == math.MaxInt32 {
		for i := range b.visited {
			b.visited[i] = 0
		}
		b.stamp = 0
	}
	b.stamp++
}

// legalVacant is Legal for a vacant point p. A vacant neighbor is a liberty
// of the new stone; an opponent neighbor string in atari must have p as its
// only liberty (p is vacant and adjacent), so the move captures; a friendly
// neighbor string out of atari has a liberty beyond p that keeps the merged
// string alive. Otherwise the move is suicide. Every string on the board has
// at least one liberty between moves, as atari requires.
func (b *Board) legalVacant(p int, c Color) bool {
	if p == b.koPoint {
		return false
	}
	opp := c.Opponent()
	for _, nb := range b.adj(p) {
		switch b.points[nb] {
		case Vacant:
			return true
		case opp:
			if b.strs[b.head[nb]].atari() {
				return true
			}
		default: // own color
			if !b.strs[b.head[nb]].atari() {
				return true
			}
		}
	}
	return false
}

// ErrIllegalMove reports an illegal play.
var ErrIllegalMove = errors.New("leela: illegal move")

// Legal reports whether c may play at p.
func (b *Board) Legal(p int, c Color) bool {
	if p == PassMove {
		return true
	}
	if p < 0 || p >= len(b.points) || b.points[p] != Vacant {
		return false
	}
	return b.legalVacant(p, c)
}

// Play places a stone for c at p (or passes). It returns the number of
// stones captured, or an error for illegal moves.
func (b *Board) Play(p int, c Color) (int, error) {
	if p == PassMove {
		b.koPoint = -1
		return 0, nil
	}
	if !b.Legal(p, c) {
		return 0, fmt.Errorf("%w: %s at %d", ErrIllegalMove, c, p)
	}
	b.place(p, c)
	opp := c.Opponent()
	captured := 0
	koCandidate := -1
	for _, nb := range b.adj(p) {
		// A string removed via an earlier neighbor is already Vacant here.
		if b.points[nb] == opp && b.strs[b.head[nb]].plib == 0 {
			h := b.head[nb]
			if b.strs[h].size == 1 {
				koCandidate = int(h)
			}
			captured += b.removeString(h, c)
		}
	}
	// Simple ko: exactly one stone captured by a single new stone whose
	// group has exactly that one liberty.
	if captured == 1 && koCandidate >= 0 && b.isSingleStoneWithOneLiberty(p, c) {
		b.koPoint = koCandidate
	} else {
		b.koPoint = -1
	}
	return captured, nil
}

// place puts a c stone on vacant p as a one-stone string, takes p from the
// pseudo-liberties of every neighboring string, and merges p with its
// friendly neighbors. Captures are left to the caller.
func (b *Board) place(p int, c Color) {
	b.points[p] = c
	b.head[p] = int16(p)
	b.next[p] = int16(p)
	s := goString{size: 1}
	v := int32(p) + 1
	for _, nb := range b.adj(p) {
		if b.points[nb] == Vacant {
			s.addLib(int32(nb) + 1)
		} else {
			b.strs[b.head[nb]].removeLib(v)
		}
	}
	b.strs[p] = s
	for _, nb := range b.adj(p) {
		if b.points[nb] == c && b.head[nb] != b.head[p] {
			b.merge(b.head[p], b.head[nb])
		}
	}
}

// merge joins the strings headed by x and y, relabeling the smaller one.
func (b *Board) merge(x, y int16) {
	if b.strs[x].size < b.strs[y].size {
		x, y = y, x
	}
	for q := y; ; {
		b.head[q] = x
		if q = b.next[q]; q == y {
			break
		}
	}
	b.next[x], b.next[y] = b.next[y], b.next[x]
	sx, sy := &b.strs[x], &b.strs[y]
	sx.size += sy.size
	sx.plib += sy.plib
	sx.sumV += sy.sumV
	sx.sumV2 += sy.sumV2
}

// removeString captures the string headed by h for captor: its stones
// become vacant and each freed point is credited as a pseudo-liberty to
// every neighboring string. It returns the number of stones removed.
func (b *Board) removeString(h int16, captor Color) int {
	for q := h; ; {
		b.points[q] = Vacant
		if q = b.next[q]; q == h {
			break
		}
	}
	n := 0
	for q := h; ; {
		v := int32(q) + 1
		for _, nb := range b.adj(int(q)) {
			if b.points[nb] != Vacant {
				b.strs[b.head[nb]].addLib(v)
			}
		}
		n++
		if q = b.next[q]; q == h {
			break
		}
	}
	b.captures[captor] += n
	return n
}

// isSingleStoneWithOneLiberty checks the ko precondition for the stone just
// placed at p.
func (b *Board) isSingleStoneWithOneLiberty(p int, c Color) bool {
	libs := 0
	for _, nb := range b.adj(p) {
		switch b.points[nb] {
		case Vacant:
			libs++
		case c:
			return false
		}
	}
	return libs == 1
}

// Clone deep-copies the board.
func (b *Board) Clone() *Board {
	return &Board{
		Size:     b.Size,
		points:   append([]Color(nil), b.points...),
		koPoint:  b.koPoint,
		captures: b.captures,
		visited:  make([]int32, len(b.points)),
		// The neighbor table is immutable — clones share it.
		nbr:  b.nbr,
		nbrN: b.nbrN,
		head: append([]int16(nil), b.head...),
		next: append([]int16(nil), b.next...),
		strs: append([]goString(nil), b.strs...),
	}
}

// CopyFrom resets b to src's position without allocating. The boards must
// share a size; Score's scratch (visited stamps) is left as-is — stamps only
// ever advance, so stale marks never alias fresh ones.
func (b *Board) CopyFrom(src *Board) {
	copy(b.points, src.points)
	b.koPoint = src.koPoint
	b.captures = src.captures
	copy(b.head, src.head)
	copy(b.next, src.next)
	copy(b.strs, src.strs)
}

// Score computes area scores (stones + surrounded empty territory) for both
// players. Empty regions touching both colors count for neither.
func (b *Board) Score() (black, white int) {
	n := len(b.points)
	// One stamp marks every visited vacant point: regions are disjoint, so
	// a single stamp suffices and no per-call allocation is needed.
	b.nextStamp()
	for p := 0; p < n; p++ {
		switch b.points[p] {
		case Black:
			black++
		case White:
			white++
		case Vacant:
			if b.visited[p] == b.stamp {
				continue
			}
			// Flood-fill the vacant region, noting bordering colors.
			b.queue = b.queue[:0]
			b.queue = append(b.queue, p)
			b.visited[p] = b.stamp
			touchBlack, touchWhite := false, false
			for i := 0; i < len(b.queue); i++ {
				for _, nb := range b.adj(b.queue[i]) {
					switch b.points[nb] {
					case Black:
						touchBlack = true
					case White:
						touchWhite = true
					case Vacant:
						if b.visited[nb] != b.stamp {
							b.visited[nb] = b.stamp
							b.queue = append(b.queue, int(nb))
						}
					}
				}
			}
			if touchBlack && !touchWhite {
				black += len(b.queue)
			} else if touchWhite && !touchBlack {
				white += len(b.queue)
			}
		}
	}
	return black, white
}

// isEyeLike reports whether p is a single-point eye for c (playout move
// filter: never fill your own eyes).
func (b *Board) isEyeLike(p int, c Color) bool {
	for _, nb := range b.adj(p) {
		if b.points[nb] != c {
			return false
		}
	}
	return true
}

// sgfCoords are the letter coordinates of SGF point notation.
const sgfCoords = "abcdefghijklmnopqrstuvwxy"

// MoveToSGF renders a move in SGF point notation ("" for pass).
func MoveToSGF(p, size int) string {
	if p == PassMove {
		return ""
	}
	return string([]byte{sgfCoords[p%size], sgfCoords[p/size]})
}

// SGFToMove parses an SGF point ("" = pass).
func SGFToMove(s string, size int) (int, error) {
	if s == "" {
		return PassMove, nil
	}
	if len(s) != 2 {
		return 0, fmt.Errorf("leela: bad SGF point %q", s)
	}
	c := strings.IndexByte(sgfCoords, s[0])
	r := strings.IndexByte(sgfCoords, s[1])
	if c < 0 || r < 0 || c >= size || r >= size {
		return 0, fmt.Errorf("leela: SGF point %q outside %dx%d board", s, size, size)
	}
	return r*size + c, nil
}
