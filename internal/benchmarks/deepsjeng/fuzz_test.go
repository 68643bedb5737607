package deepsjeng

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// kingCaptureFEN has the side not to move in check: white's first legal
// moves include Rxe8, capturing the black king.
const kingCaptureFEN = "4k3/8/8/8/8/8/4R3/4K3 w"

// scanKingSquare is the linear-scan king lookup the cached king squares
// replaced (-1 if absent).
func (b *Board) scanKingSquare(white bool) int {
	want := King
	if !white {
		want = -King
	}
	for sq, p := range b.Squares {
		if p == want {
			return sq
		}
	}
	return -1
}

// squareAttackedRef is the closure-based SquareAttacked the attack tables
// replaced.
func (b *Board) squareAttackedRef(sq int, byWhite bool) bool {
	r, f := sq/8, sq%8
	sign := Piece(1)
	if !byWhite {
		sign = -1
	}
	// Pawn attacks: a white pawn on r-1 attacks r.
	pr := r - 1
	if !byWhite {
		pr = r + 1
	}
	if pr >= 0 && pr < 8 {
		for _, df := range []int{-1, 1} {
			pf := f + df
			if pf >= 0 && pf < 8 && b.Squares[pr*8+pf] == sign*Pawn {
				return true
			}
		}
	}
	for _, st := range knightSteps {
		nr, nf := r+st[0], f+st[1]
		if nr >= 0 && nr < 8 && nf >= 0 && nf < 8 && b.Squares[nr*8+nf] == sign*Knight {
			return true
		}
	}
	for _, st := range kingSteps {
		nr, nf := r+st[0], f+st[1]
		if nr >= 0 && nr < 8 && nf >= 0 && nf < 8 && b.Squares[nr*8+nf] == sign*King {
			return true
		}
	}
	slide := func(dirs [4][2]int, p1, p2 Piece) bool {
		for _, d := range dirs {
			nr, nf := r+d[0], f+d[1]
			for nr >= 0 && nr < 8 && nf >= 0 && nf < 8 {
				q := b.Squares[nr*8+nf]
				if q != Empty {
					if q == p1 || q == p2 {
						return true
					}
					break
				}
				nr += d[0]
				nf += d[1]
			}
		}
		return false
	}
	if slide(bishopDirs, sign*Bishop, sign*Queen) {
		return true
	}
	return slide(rookDirs, sign*Rook, sign*Queen)
}

// fullCheckLegal is the reference legality filter: make every pseudo-move,
// find the mover's king by linear scan, test it with squareAttackedRef, and
// unmake.
func (b *Board) fullCheckLegal(pseudo []Move) []Move {
	var legal []Move
	for _, m := range pseudo {
		u := b.MakeMove(m)
		k := b.scanKingSquare(!b.WhiteToMove)
		ok := k >= 0 && !b.squareAttackedRef(k, b.WhiteToMove)
		b.UnmakeMove(u)
		if ok {
			legal = append(legal, m)
		}
	}
	return legal
}

// checkKings fails when a cached king square disagrees with a linear scan.
func checkKings(t *testing.T, b *Board, ctx string) {
	t.Helper()
	for _, white := range []bool{true, false} {
		if got, want := b.kingSquare(white), b.scanKingSquare(white); got != want {
			t.Fatalf("%s: %s: cached king square (white=%v) = %d, scan finds %d", ctx, b.FEN(), white, got, want)
		}
	}
}

// FuzzLegalFilterMatchesFullCheck walks byte-driven games and checks, at
// every position, that filterLegal's verdicts — shortcut or not — equal the
// full make/scan/attack/unmake reference, that SquareAttacked equals the
// reference on every square for both sides, and that the cached king
// squares match a linear scan. Search feeds these verdicts into the
// profiler's branch event stream, so any divergence would change Reports.
//
// data[0] picks the start position; each later byte picks the next legal
// move. The starts include positions where the side not to move is in
// check, so walks capture kings.
func FuzzLegalFilterMatchesFullCheck(f *testing.F) {
	starts := append([]string{
		StartPosition().FEN(),
		kingCaptureFEN,
		"8/8/8/3kK3/8/8/8/8 w", // the kings can capture each other
		"r3k2r/8/8/8/8/8/8/R3K2R b",
	}, GeneratePositions(7, 12)...)
	rng := rand.New(rand.NewSource(43))
	for i := range starts {
		for trial := 0; trial < 3; trial++ {
			data := make([]byte, 1+rng.Intn(48))
			rng.Read(data)
			data[0] = byte(i)
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		fen := starts[int(data[0])%len(starts)]
		b, err := ParseFEN(fen)
		if err != nil {
			t.Fatal(err)
		}
		for ply, x := range data[1:] {
			ctx := fmt.Sprintf("%q ply %d", fen, ply)
			checkKings(t, b, ctx)
			for sq := 0; sq < 64; sq++ {
				for _, white := range []bool{true, false} {
					if got, want := b.SquareAttacked(sq, white), b.squareAttackedRef(sq, white); got != want {
						t.Fatalf("%s: %s: SquareAttacked(%d, white=%v) = %v, reference %v", ctx, b.FEN(), sq, white, got, want)
					}
				}
			}
			pseudo := b.GenMoves(nil)
			want := b.fullCheckLegal(pseudo)
			got := b.filterLegal(slices.Clone(pseudo), nil)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %s: filterLegal = %v, full check = %v", ctx, b.FEN(), got, want)
			}
			if len(got) == 0 {
				return
			}
			b.MakeMove(got[int(x)%len(got)])
		}
		checkKings(t, b, fen)
	})
}
