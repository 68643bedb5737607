package leela

import (
	"fmt"
	"math/rand"
	"testing"
)

// floodLegal is the flood-fill legality reference Legal replaced: it
// tentatively places the stone and searches the affected groups for
// liberties.
func (b *Board) floodLegal(p int, c Color) bool {
	if p == PassMove {
		return true
	}
	if p < 0 || p >= len(b.points) || b.points[p] != Vacant || p == b.koPoint {
		return false
	}
	b.points[p] = c
	defer func() { b.points[p] = Vacant }()
	opp := c.Opponent()
	for _, nb := range b.adj(p) {
		if b.points[nb] == opp && !b.groupHasLiberty(int(nb), opp) {
			return true
		}
	}
	return b.groupHasLiberty(p, c)
}

// groupHasLiberty reports whether the group containing p (of color col) has
// at least one liberty.
func (b *Board) groupHasLiberty(p int, col Color) bool {
	return b.floodLiberties(p, col, 1) > 0
}

// floodLiberties flood-fills the group containing p (of color col) and
// counts its distinct liberties, stopping once it has found limit of them.
func (b *Board) floodLiberties(p int, col Color, limit int) int {
	b.nextStamp()
	stone := b.stamp
	b.nextStamp()
	lib := b.stamp
	b.queue = append(b.queue[:0], p)
	b.visited[p] = stone
	libs := 0
	for i := 0; i < len(b.queue); i++ {
		for _, nb := range b.adj(b.queue[i]) {
			switch b.points[nb] {
			case Vacant:
				if b.visited[nb] != lib {
					b.visited[nb] = lib
					if libs++; libs == limit {
						return libs
					}
				}
			case col:
				if b.visited[nb] != stone {
					b.visited[nb] = stone
					b.queue = append(b.queue, int(nb))
				}
			}
		}
	}
	return libs
}

// checkBoard compares the incremental string state against flood fills:
// Legal must equal floodLegal for both colors at every vacant point, and
// every stone's string must be in atari exactly when its group has one
// distinct liberty.
func checkBoard(t *testing.T, b *Board, ctx string) {
	t.Helper()
	for p := range b.points {
		col := b.points[p]
		if col == Vacant {
			for _, c := range []Color{Black, White} {
				if got, want := b.Legal(p, c), b.floodLegal(p, c); got != want {
					t.Fatalf("%s: Legal(%d, %s) = %v, flood fill says %v", ctx, p, c, got, want)
				}
			}
			continue
		}
		libs := b.floodLiberties(p, col, 2)
		if libs == 0 {
			t.Fatalf("%s: %s stone at %d has no liberty", ctx, col, p)
		}
		if got, want := b.strs[b.head[p]].atari(), libs == 1; got != want {
			t.Fatalf("%s: string of %d atari = %v, flood fill finds %d+ liberties", ctx, p, got, libs)
		}
	}
}

// sameBoard reports the first observable difference between two boards:
// stones, ko point, captures, and the Legal and atari verdicts derived from
// their string state.
func sameBoard(a, b *Board) string {
	if a.koPoint != b.koPoint || a.captures != b.captures {
		return fmt.Sprintf("ko %d/%d captures %v/%v", a.koPoint, b.koPoint, a.captures, b.captures)
	}
	for p := range a.points {
		switch {
		case a.points[p] != b.points[p]:
			return fmt.Sprintf("point %d: %s vs %s", p, a.points[p], b.points[p])
		case a.points[p] != Vacant:
			if x, y := a.strs[a.head[p]], b.strs[b.head[p]]; x != y {
				return fmt.Sprintf("string of %d: %+v vs %+v", p, x, y)
			}
		default:
			for _, c := range []Color{Black, White} {
				if a.Legal(p, c) != b.Legal(p, c) {
					return fmt.Sprintf("Legal(%d, %s) differs", p, c)
				}
			}
		}
	}
	return ""
}

// FuzzBoardMatchesFloodFill plays a byte-driven game and checks the
// incremental strings against the flood-fill reference after every Play.
// The MCTS move scan feeds Legal verdicts straight into the profiler's
// branch event stream, so any divergence would change Reports.
//
// data[0] picks the board size (3..13); each later byte picks one move: 255
// passes, anything else indexes the legal points. A byte with its low
// nibble all ones also resets a shadow board mid-game — by CopyFrom onto a
// board first dirtied with other moves (bit 4 set) or by Clone — and the
// shadow must then track the main board move for move.
func FuzzBoardMatchesFloodFill(f *testing.F) {
	// Seed corpus: random games on 5, 9 and 13 boards.
	rng := rand.New(rand.NewSource(41))
	for _, size := range []int{5, 9, 13} {
		for trial := 0; trial < 40; trial++ {
			data := make([]byte, 1+3*size*size)
			rng.Read(data)
			data[0] = byte(size - 3)
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		size := 3 + int(data[0])%11
		b, err := NewBoard(size)
		if err != nil {
			t.Fatal(err)
		}
		shadow := b.Clone()
		c := Black
		var legal []int
		for mv, x := range data[1:] {
			ctx := fmt.Sprintf("size %d move %d", size, mv)
			m := PassMove
			legal = legal[:0]
			for p := range b.points {
				if b.Legal(p, c) {
					legal = append(legal, p)
				}
			}
			if x != 255 && len(legal) > 0 {
				m = legal[int(x)%len(legal)]
			}
			if _, err := b.Play(m, c); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if _, err := shadow.Play(m, c); err != nil {
				t.Fatalf("%s: shadow: %v", ctx, err)
			}
			c = c.Opponent()
			checkBoard(t, b, ctx)
			if x&0x0f == 0x0f {
				if x&0x10 != 0 {
					for _, p := range legal {
						_, _ = shadow.Play(p, c)
					}
					shadow.CopyFrom(b)
				} else {
					shadow = b.Clone()
				}
			}
			if d := sameBoard(b, shadow); d != "" {
				t.Fatalf("%s: shadow board diverged: %s", ctx, d)
			}
		}
	})
}

// TestCopyFromMatchesClone pins the in-place board reset: after CopyFrom,
// the destination must behave identically to a fresh Clone of the source.
func TestCopyFromMatchesClone(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src, err := NewBoard(9)
	if err != nil {
		t.Fatal(err)
	}
	dst := src.Clone()
	c := Black
	for mv := 0; mv < 200; mv++ {
		// Mutate dst arbitrarily, then reset it from src and compare
		// observable state against a fresh clone.
		for k := 0; k < 5; k++ {
			p := rng.Intn(81)
			if dst.At(p) == Vacant && dst.Legal(p, c) {
				_, _ = dst.Play(p, c)
			}
		}
		dst.CopyFrom(src)
		ref := src.Clone()
		for p := 0; p < 81; p++ {
			if dst.At(p) != ref.At(p) {
				t.Fatalf("move %d: point %d differs after CopyFrom", mv, p)
			}
			for _, col := range []Color{Black, White} {
				if dst.At(p) == Vacant && dst.Legal(p, col) != ref.Legal(p, col) {
					t.Fatalf("move %d: Legal(%d, %s) differs after CopyFrom", mv, p, col)
				}
			}
		}
		// Advance the source game.
		var legal []int
		for p := 0; p < 81; p++ {
			if src.At(p) == Vacant && src.Legal(p, c) {
				legal = append(legal, p)
			}
		}
		if len(legal) == 0 {
			break
		}
		if _, err := src.Play(legal[rng.Intn(len(legal))], c); err != nil {
			t.Fatal(err)
		}
		c = c.Opponent()
	}
}

// TestParseSGFNeverPanics feeds random SGF-shaped noise to the parser.
func TestParseSGFNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fragments := []string{"(;", ")", ";B[", ";W[", "]", "SZ[9", "SZ[", "aa", "zz", "[", ";"}
	for trial := 0; trial < 3000; trial++ {
		src := ""
		for k := 0; k < rng.Intn(10); k++ {
			src += fragments[rng.Intn(len(fragments))]
		}
		if g, err := ParseSGF(src); err == nil {
			_, _, _ = g.Replay() // replay of parsed games must not panic
		}
	}
}
