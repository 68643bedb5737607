// Package deepsjeng reproduces 531.deepsjeng_r: a chess playing and
// analysis engine performing alpha-beta tree search with a transposition
// table, driven by workloads of FEN positions analyzed to a given ply depth
// (Section IV-A). The Alberta workload script's Arasan position suite is
// replaced by a deterministic position generator that plays out games with
// a weak randomized engine and records interesting middlegame positions.
//
// Simplifications relative to full chess (documented in DESIGN.md):
// castling and en passant are not implemented; pawns always promote to
// queens. These do not affect the benchmark's character (deep recursive
// search over a branching game tree with table lookups).
package deepsjeng

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/perf"
)

// Piece codes. Positive = white, negative = black, 0 = empty.
type Piece int8

// White piece codes; negate for black.
const (
	Empty  Piece = 0
	Pawn   Piece = 1
	Knight Piece = 2
	Bishop Piece = 3
	Rook   Piece = 4
	Queen  Piece = 5
	King   Piece = 6
)

// Board is a chess position in mailbox form: squares indexed rank*8+file,
// rank 0 = white's first rank. Squares is read-only outside MakeMove and
// UnmakeMove, which keep the cached king squares in step with it.
type Board struct {
	Squares [64]Piece
	// WhiteToMove reports the side to move.
	WhiteToMove bool
	// hash is the incrementally maintained Zobrist key.
	hash uint64
	// kings holds each side's king square ([0] white, [1] black), or -1
	// once search has captured that king.
	kings [2]int8
}

// side indexes per-color arrays: 0 for white, 1 for black.
func side(white bool) int {
	if white {
		return 0
	}
	return 1
}

// Move is a from/to square pair with promotion handled implicitly
// (pawns reaching the last rank become queens).
type Move struct {
	From, To int8
}

// zobrist keys: [piece+6][square], plus side to move.
var zobristTable [13][64]uint64
var zobristSide uint64

func init() {
	s := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for p := 0; p < 13; p++ {
		for sq := 0; sq < 64; sq++ {
			zobristTable[p][sq] = next()
		}
	}
	zobristSide = next()
}

// recomputeHash rebuilds the Zobrist key from scratch.
func (b *Board) recomputeHash() {
	h := uint64(0)
	for sq, p := range b.Squares {
		if p != Empty {
			h ^= zobristTable[p+6][sq]
		}
	}
	if !b.WhiteToMove {
		h ^= zobristSide
	}
	b.hash = h
}

// Hash returns the position's Zobrist key.
func (b *Board) Hash() uint64 { return b.hash }

// StartPosition returns the standard initial position.
func StartPosition() *Board {
	b := &Board{WhiteToMove: true}
	back := []Piece{Rook, Knight, Bishop, Queen, King, Bishop, Knight, Rook}
	for f := 0; f < 8; f++ {
		b.Squares[f] = back[f]
		b.Squares[8+f] = Pawn
		b.Squares[48+f] = -Pawn
		b.Squares[56+f] = -back[f]
	}
	b.kings = [2]int8{4, 60}
	b.recomputeHash()
	return b
}

// ErrBadFEN reports an unparseable FEN string.
var ErrBadFEN = errors.New("deepsjeng: bad FEN")

var fenPieces = map[byte]Piece{
	'P': Pawn, 'N': Knight, 'B': Bishop, 'R': Rook, 'Q': Queen, 'K': King,
	'p': -Pawn, 'n': -Knight, 'b': -Bishop, 'r': -Rook, 'q': -Queen, 'k': -King,
}

// ParseFEN parses the board and side-to-move fields of a FEN string
// (remaining fields are accepted and ignored).
func ParseFEN(fen string) (*Board, error) {
	fields := strings.Fields(fen)
	if len(fields) < 2 {
		return nil, fmt.Errorf("%w: %q", ErrBadFEN, fen)
	}
	b := &Board{}
	ranks := strings.Split(fields[0], "/")
	if len(ranks) != 8 {
		return nil, fmt.Errorf("%w: %d ranks", ErrBadFEN, len(ranks))
	}
	for r := 0; r < 8; r++ {
		rank := 7 - r // FEN starts at rank 8
		file := 0
		for i := 0; i < len(ranks[r]); i++ {
			ch := ranks[r][i]
			if ch >= '1' && ch <= '8' {
				file += int(ch - '0')
				continue
			}
			p, ok := fenPieces[ch]
			if !ok || file > 7 {
				return nil, fmt.Errorf("%w: rank %q", ErrBadFEN, ranks[r])
			}
			b.Squares[rank*8+file] = p
			file++
		}
		if file != 8 {
			return nil, fmt.Errorf("%w: rank %q has %d files", ErrBadFEN, ranks[r], file)
		}
	}
	switch fields[1] {
	case "w":
		b.WhiteToMove = true
	case "b":
		b.WhiteToMove = false
	default:
		return nil, fmt.Errorf("%w: side %q", ErrBadFEN, fields[1])
	}
	for i, king := range [2]Piece{King, -King} {
		n := 0
		for sq, p := range b.Squares {
			if p == king {
				n++
				b.kings[i] = int8(sq)
			}
		}
		if n != 1 {
			return nil, fmt.Errorf("%w: %s has %d kings, want 1", ErrBadFEN, [2]string{"white", "black"}[i], n)
		}
	}
	b.recomputeHash()
	return b, nil
}

// FEN renders the position's board and side fields.
func (b *Board) FEN() string {
	names := map[Piece]byte{
		Pawn: 'P', Knight: 'N', Bishop: 'B', Rook: 'R', Queen: 'Q', King: 'K',
		-Pawn: 'p', -Knight: 'n', -Bishop: 'b', -Rook: 'r', -Queen: 'q', -King: 'k',
	}
	var sb strings.Builder
	for r := 7; r >= 0; r-- {
		empty := 0
		for f := 0; f < 8; f++ {
			p := b.Squares[r*8+f]
			if p == Empty {
				empty++
				continue
			}
			if empty > 0 {
				sb.WriteByte(byte('0' + empty))
				empty = 0
			}
			sb.WriteByte(names[p])
		}
		if empty > 0 {
			sb.WriteByte(byte('0' + empty))
		}
		if r > 0 {
			sb.WriteByte('/')
		}
	}
	if b.WhiteToMove {
		sb.WriteString(" w")
	} else {
		sb.WriteString(" b")
	}
	return sb.String()
}

// undo captures the state needed to unmake a move.
type undo struct {
	move     Move
	captured Piece
	moved    Piece // pre-promotion piece
	hash     uint64
	kings    [2]int8
}

// MakeMove applies m (assumed pseudo-legal) and returns the undo record.
func (b *Board) MakeMove(m Move) undo {
	u := undo{move: m, captured: b.Squares[m.To], moved: b.Squares[m.From], hash: b.hash, kings: b.kings}
	p := b.Squares[m.From]
	// Update hash: remove moving piece from origin, any capture from
	// target, place (possibly promoted) piece.
	b.hash ^= zobristTable[p+6][m.From]
	if u.captured != Empty {
		b.hash ^= zobristTable[u.captured+6][m.To]
	}
	placed := p
	if p == Pawn && m.To >= 56 {
		placed = Queen
	} else if p == -Pawn && m.To < 8 {
		placed = -Queen
	}
	b.hash ^= zobristTable[placed+6][m.To]
	b.hash ^= zobristSide
	b.Squares[m.To] = placed
	b.Squares[m.From] = Empty
	if u.captured == King || u.captured == -King {
		b.kings[side(u.captured > 0)] = -1
	}
	if p == King || p == -King {
		b.kings[side(p > 0)] = m.To
	}
	b.WhiteToMove = !b.WhiteToMove
	return u
}

// UnmakeMove reverses a MakeMove.
func (b *Board) UnmakeMove(u undo) {
	b.Squares[u.move.From] = u.moved
	b.Squares[u.move.To] = u.captured
	b.WhiteToMove = !b.WhiteToMove
	b.hash = u.hash
	b.kings = u.kings
}

// pieceDirs holds sliding/stepping offsets as (dr, df) pairs.
var (
	knightSteps = [8][2]int{{1, 2}, {2, 1}, {2, -1}, {1, -2}, {-1, -2}, {-2, -1}, {-2, 1}, {-1, 2}}
	kingSteps   = [8][2]int{{1, 0}, {1, 1}, {0, 1}, {-1, 1}, {-1, 0}, {-1, -1}, {0, -1}, {1, -1}}
	bishopDirs  = [4][2]int{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}}
	rookDirs    = [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
)

// attackTable lists, per target square, where each kind of attacker must
// stand to attack it.
type attackTable struct {
	knight [64][]int8
	king   [64][]int8
	// pawn[side][sq]: squares from which a pawn of that side attacks sq.
	pawn [2][64][]int8
	// rays[sq][d]: squares outward from sq, nearest first; d < 4 are the
	// bishopDirs, d ≥ 4 the rookDirs.
	rays [64][8][]int8
}

// attacks is built by a package-var initializer, not init(): suitePositions
// is generated during package var initialization, which runs before any
// init function, and Go orders var initialization by dependency, so this
// table is ready before GeneratePositions first calls SquareAttacked.
var attacks = newAttackTable()

func newAttackTable() *attackTable {
	t := &attackTable{}
	onBoard := func(r, f int) bool { return r >= 0 && r < 8 && f >= 0 && f < 8 }
	dirs := append(bishopDirs[:], rookDirs[:]...)
	for sq := 0; sq < 64; sq++ {
		r, f := sq/8, sq%8
		for _, st := range knightSteps {
			if nr, nf := r+st[0], f+st[1]; onBoard(nr, nf) {
				t.knight[sq] = append(t.knight[sq], int8(nr*8+nf))
			}
		}
		for _, st := range kingSteps {
			if nr, nf := r+st[0], f+st[1]; onBoard(nr, nf) {
				t.king[sq] = append(t.king[sq], int8(nr*8+nf))
			}
		}
		// A white pawn on rank r-1 attacks rank r; a black one on r+1.
		for i, pr := range [2]int{r - 1, r + 1} {
			for _, pf := range [2]int{f - 1, f + 1} {
				if onBoard(pr, pf) {
					t.pawn[i][sq] = append(t.pawn[i][sq], int8(pr*8+pf))
				}
			}
		}
		for d, dir := range dirs {
			for nr, nf := r+dir[0], f+dir[1]; onBoard(nr, nf); nr, nf = nr+dir[0], nf+dir[1] {
				t.rays[sq][d] = append(t.rays[sq][d], int8(nr*8+nf))
			}
		}
	}
	return t
}

// SquareAttacked reports whether sq is attacked by the given side.
func (b *Board) SquareAttacked(sq int, byWhite bool) bool {
	sign := Piece(1)
	if !byWhite {
		sign = -1
	}
	for _, s := range attacks.pawn[side(byWhite)][sq] {
		if b.Squares[s] == sign*Pawn {
			return true
		}
	}
	for _, s := range attacks.knight[sq] {
		if b.Squares[s] == sign*Knight {
			return true
		}
	}
	for _, s := range attacks.king[sq] {
		if b.Squares[s] == sign*King {
			return true
		}
	}
	queen, slider := sign*Queen, sign*Bishop
	for d, ray := range attacks.rays[sq] {
		if d == 4 {
			slider = sign * Rook
		}
		for _, s := range ray {
			if q := b.Squares[s]; q != Empty {
				if q == queen || q == slider {
					return true
				}
				break
			}
		}
	}
	return false
}

// kingSquare returns the given side's king square (-1 if captured).
func (b *Board) kingSquare(white bool) int {
	return int(b.kings[side(white)])
}

// InCheck reports whether the side to move is in check.
func (b *Board) InCheck() bool {
	k := b.kingSquare(b.WhiteToMove)
	if k < 0 {
		return false
	}
	return b.SquareAttacked(k, !b.WhiteToMove)
}

// GenMoves appends all pseudo-legal moves for the side to move to buf and
// returns it. Captures of the king never occur because search prunes
// illegal positions.
func (b *Board) GenMoves(buf []Move) []Move {
	white := b.WhiteToMove
	for sq := 0; sq < 64; sq++ {
		p := b.Squares[sq]
		if p == Empty || (p > 0) != white {
			continue
		}
		r, f := sq/8, sq%8
		add := func(nr, nf int) bool {
			// Returns true when sliding may continue past (nr,nf).
			if nr < 0 || nr > 7 || nf < 0 || nf > 7 {
				return false
			}
			t := b.Squares[nr*8+nf]
			if t == Empty {
				buf = append(buf, Move{From: int8(sq), To: int8(nr*8 + nf)})
				return true
			}
			if (t > 0) != white {
				buf = append(buf, Move{From: int8(sq), To: int8(nr*8 + nf)})
			}
			return false
		}
		switch p {
		case Pawn, -Pawn:
			dir := 1
			startRank := 1
			if p < 0 {
				dir = -1
				startRank = 6
			}
			if nr := r + dir; nr >= 0 && nr < 8 {
				if b.Squares[nr*8+f] == Empty {
					buf = append(buf, Move{From: int8(sq), To: int8(nr*8 + f)})
					if r == startRank && b.Squares[(r+2*dir)*8+f] == Empty {
						buf = append(buf, Move{From: int8(sq), To: int8((r+2*dir)*8 + f)})
					}
				}
				for _, df := range []int{-1, 1} {
					nf := f + df
					if nf >= 0 && nf < 8 {
						t := b.Squares[nr*8+nf]
						if t != Empty && (t > 0) != white {
							buf = append(buf, Move{From: int8(sq), To: int8(nr*8 + nf)})
						}
					}
				}
			}
		case Knight, -Knight:
			for _, st := range knightSteps {
				add(r+st[0], f+st[1])
			}
		case King, -King:
			for _, st := range kingSteps {
				add(r+st[0], f+st[1])
			}
		case Bishop, -Bishop:
			for _, d := range bishopDirs {
				for nr, nf := r+d[0], f+d[1]; add(nr, nf); nr, nf = nr+d[0], nf+d[1] {
				}
			}
		case Rook, -Rook:
			for _, d := range rookDirs {
				for nr, nf := r+d[0], f+d[1]; add(nr, nf); nr, nf = nr+d[0], nf+d[1] {
				}
			}
		case Queen, -Queen:
			for _, d := range bishopDirs {
				for nr, nf := r+d[0], f+d[1]; add(nr, nf); nr, nf = nr+d[0], nf+d[1] {
				}
			}
			for _, d := range rookDirs {
				for nr, nf := r+d[0], f+d[1]; add(nr, nf); nr, nf = nr+d[0], nf+d[1] {
				}
			}
		}
	}
	return buf
}

// LegalMoves filters GenMoves by king safety.
func (b *Board) LegalMoves() []Move {
	return b.filterLegal(b.GenMoves(nil), nil)
}

// filterLegal keeps, in place, the moves of pseudo (pseudo-legal moves for
// the side to move) that do not leave the mover's king attacked. When p is
// non-nil it records one branch per move on the verdict.
//
// A move needs the make/attack/unmake check only when the mover is in
// check, or when its from-square shares a rank, file or diagonal with the
// mover's king (which covers king moves). Otherwise vacating the
// from-square cannot open a line to the king, the moved piece only adds
// blockers or removes an attacker, and with no en passant or castling no
// other square changes, so the king stays safe (DESIGN.md §10).
func (b *Board) filterLegal(pseudo []Move, p *perf.Profiler) []Move {
	white := b.WhiteToMove
	k := b.kingSquare(white)
	inCheck := k >= 0 && b.SquareAttacked(k, !white)
	legal := pseudo[:0]
	for _, m := range pseudo {
		ok := k >= 0
		if ok && (inCheck || aligned(int(m.From), k)) {
			ok = b.kingSafeAfter(m)
		}
		if p != nil {
			p.OpsBranch(12, 12, ok)
		}
		if ok {
			legal = append(legal, m)
		}
	}
	return legal
}

// kingSafeAfter reports whether m leaves the mover's king unattacked, by
// making and unmaking it.
func (b *Board) kingSafeAfter(m Move) bool {
	u := b.MakeMove(m)
	ok := !b.SquareAttacked(b.kingSquare(!b.WhiteToMove), b.WhiteToMove)
	b.UnmakeMove(u)
	return ok
}

// aligned reports whether squares a and b share a rank, file or diagonal.
func aligned(a, b int) bool {
	dr, df := a/8-b/8, a%8-b%8
	return dr == 0 || df == 0 || dr == df || dr == -df
}

// Perft counts leaf nodes of the legal move tree to the given depth
// (validation helper).
func (b *Board) Perft(depth int) uint64 {
	if depth == 0 {
		return 1
	}
	var total uint64
	for _, m := range b.LegalMoves() {
		u := b.MakeMove(m)
		total += b.Perft(depth - 1)
		b.UnmakeMove(u)
	}
	return total
}
