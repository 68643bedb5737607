package deepsjeng

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestMakeUnmakeRandomWalk plays random legal games, unmaking every move in
// reverse, and checks the board returns to the exact original state —
// including the incremental Zobrist hash — and that the cached king squares
// match a linear scan after every MakeMove and UnmakeMove. Every fifth game
// starts with the side not to move in check, so its first legal moves
// include a king capture.
func TestMakeUnmakeRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		start := StartPosition()
		if trial%5 == 4 {
			var err error
			if start, err = ParseFEN(kingCaptureFEN); err != nil {
				t.Fatal(err)
			}
		}
		b := *start
		var undos []undo
		var hashes []uint64
		plies := 1 + rng.Intn(40)
		for i := 0; i < plies; i++ {
			moves := b.LegalMoves()
			if len(moves) == 0 {
				break
			}
			hashes = append(hashes, b.Hash())
			undos = append(undos, b.MakeMove(moves[rng.Intn(len(moves))]))
			checkKings(t, &b, fmt.Sprintf("trial %d: make %d", trial, i))
		}
		for i := len(undos) - 1; i >= 0; i-- {
			b.UnmakeMove(undos[i])
			if b.Hash() != hashes[i] {
				t.Fatalf("trial %d: hash mismatch at unmake %d", trial, i)
			}
			checkKings(t, &b, fmt.Sprintf("trial %d: unmake %d", trial, i))
		}
		if b.FEN() != start.FEN() {
			t.Fatalf("trial %d: board not restored: %s", trial, b.FEN())
		}
	}
}

// TestLegalMovesNeverLeaveKingInCheck is the core legality invariant.
func TestLegalMovesNeverLeaveKingInCheck(t *testing.T) {
	for _, fen := range GeneratePositions(55, 20) {
		b, err := ParseFEN(fen)
		if err != nil {
			t.Fatal(err)
		}
		mover := b.WhiteToMove
		for _, m := range b.LegalMoves() {
			u := b.MakeMove(m)
			k := b.kingSquare(mover)
			if k >= 0 && b.SquareAttacked(k, !mover) {
				t.Fatalf("position %q: move %+v leaves king attacked", fen, m)
			}
			b.UnmakeMove(u)
		}
	}
}
