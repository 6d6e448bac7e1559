package gf

import (
	"math/rand"
	"testing"
)

// mulLogExp is the reference log/exp multiplication the full table is built
// from; the exhaustive test below pins the table to it.
func mulLogExp(a, b Elem) Elem {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

func TestMulTableMatchesLogExpExhaustive(t *testing.T) {
	for a := 0; a < Size; a++ {
		for b := 0; b < Size; b++ {
			if got, want := Mul(Elem(a), Elem(b)), mulLogExp(Elem(a), Elem(b)); got != want {
				t.Fatalf("Mul(%#x, %#x) = %#x, want %#x", a, b, got, want)
			}
		}
	}
}

func TestMulRow(t *testing.T) {
	for _, c := range []Elem{0, 1, 2, 0x53, 0xFF} {
		row := MulRow(c)
		for x := 0; x < Size; x++ {
			if row[x] != Mul(c, Elem(x)) {
				t.Fatalf("MulRow(%#x)[%#x] = %#x, want %#x", c, x, row[x], Mul(c, Elem(x)))
			}
		}
	}
}

// TestMulSliceAndMulAddSlice checks MulAddSlice in both of its uses: into
// a zeroed buffer it is the plain slice multiply dst = c*src, into a filled
// one it accumulates dst ^= c*src.
func TestMulSliceAndMulAddSlice(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := r.Intn(40)
		src := make([]byte, n)
		r.Read(src)
		c := Elem(r.Intn(Size))

		dst := make([]byte, n)
		MulAddSlice(dst, src, c)
		for i := range src {
			if dst[i] != Mul(c, src[i]) {
				t.Fatalf("MulAddSlice into zeros: dst[%d] = %#x, want %#x", i, dst[i], Mul(c, src[i]))
			}
		}

		acc := make([]byte, n)
		r.Read(acc)
		want := make([]byte, n)
		for i := range acc {
			want[i] = acc[i] ^ Mul(c, src[i])
		}
		MulAddSlice(acc, src, c)
		for i := range acc {
			if acc[i] != want[i] {
				t.Fatalf("MulAddSlice: dst[%d] = %#x, want %#x", i, acc[i], want[i])
			}
		}
	}
}

func BenchmarkMulAddSlice(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	src := make([]byte, 64)
	dst := make([]byte, 64)
	r.Read(src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulAddSlice(dst, src, byte(i)|1)
	}
}
