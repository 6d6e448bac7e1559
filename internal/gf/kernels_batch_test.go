package gf

import (
	"math/rand"
	"testing"
)

func TestXtimeWordMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	b := make([]byte, Lanes)
	for trial := 0; trial < 1000; trial++ {
		r.Read(b)
		v := XtimeWord(PackWord(b))
		for l := 0; l < Lanes; l++ {
			if got, want := byte(v>>(8*l)), Mul(2, b[l]); got != want {
				t.Fatalf("XtimeWord lane %d of %#x: got %#x, want %#x", l, b, got, want)
			}
		}
	}
}

func TestMulWordMatchesScalarExhaustiveConstants(t *testing.T) {
	// Every constant, against a few random lane vectors each: the broadcast
	// row decomposition must agree with the full multiplication table.
	r := rand.New(rand.NewSource(2))
	b := make([]byte, Lanes)
	for c := 0; c < Size; c++ {
		row := MulRowBatch(Elem(c))
		for trial := 0; trial < 4; trial++ {
			r.Read(b)
			b[trial%Lanes] = 0 // keep zero lanes represented
			v := MulWord(PackWord(b), &row)
			for l := 0; l < Lanes; l++ {
				if got, want := byte(v>>(8*l)), Mul(Elem(c), b[l]); got != want {
					t.Fatalf("MulWord(%#x) lane %d of %#x: got %#x, want %#x", c, l, b, got, want)
				}
			}
		}
	}
}

func TestMulRowBatchMatchesMulRow(t *testing.T) {
	for _, c := range []Elem{0, 1, 2, 3, 0x1D, 0x53, 0x80, 0xFF} {
		row := MulRowBatch(c)
		scalar := MulRow(c)
		for j := 0; j < 8; j++ {
			// Entry j is c*x^j in every lane; x^j is Exp(j) for j < 8.
			want := BroadcastWord(scalar[Exp(j)])
			if row[j] != want {
				t.Fatalf("MulRowBatch(%#x)[%d] = %#x, want %#x", c, j, row[j], want)
			}
		}
	}
}

// TestMulAddWord checks the word multiply-accumulate step the batch
// syndrome sweep's Horner chains run for wide codes,
// MulWord(acc, row) ^ v, against the scalar Mul(c, acc) ^ v in every lane.
func TestMulAddWord(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	acc := make([]byte, Lanes)
	src := make([]byte, Lanes)
	for trial := 0; trial < 200; trial++ {
		r.Read(acc)
		r.Read(src)
		c := Elem(r.Intn(Size))
		row := MulRowBatch(c)
		v := MulWord(PackWord(acc), &row) ^ PackWord(src)
		for l := 0; l < Lanes; l++ {
			if got, want := byte(v>>(8*l)), Mul(c, acc[l])^src[l]; got != want {
				t.Fatalf("multiply-accumulate lane %d: got %#x, want %#x", l, got, want)
			}
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	b := make([]byte, Lanes)
	out := make([]byte, Lanes)
	for trial := 0; trial < 100; trial++ {
		r.Read(b)
		ScatterWord(PackWord(b), out, 0, 1, Lanes) // stride 1: the unpack
		for l := range b {
			if out[l] != b[l] {
				t.Fatalf("round trip lane %d: got %#x, want %#x", l, out[l], b[l])
			}
		}
	}
}

func TestGatherScatterWord(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const stride = 37
	for lanes := 1; lanes <= Lanes; lanes++ {
		buf := make([]byte, stride*Lanes)
		r.Read(buf)
		for off := 0; off < stride; off++ {
			v := GatherWord(buf, off, stride, lanes)
			for l := 0; l < Lanes; l++ {
				want := byte(0)
				if l < lanes {
					want = buf[l*stride+off]
				}
				if got := byte(v >> (8 * l)); got != want {
					t.Fatalf("GatherWord(off=%d, lanes=%d) lane %d: got %#x, want %#x", off, lanes, l, got, want)
				}
			}
		}
		// Scatter writes back exactly the gathered lanes.
		out := make([]byte, stride*Lanes)
		for off := 0; off < stride; off++ {
			ScatterWord(GatherWord(buf, off, stride, lanes), out, off, stride, lanes)
		}
		for l := 0; l < lanes; l++ {
			for off := 0; off < stride; off++ {
				if out[l*stride+off] != buf[l*stride+off] {
					t.Fatalf("scatter lane %d off %d mismatch", l, off)
				}
			}
		}
	}
}

// TestGatherWords8MatchesGatherWord pins the transposing block gather to
// the byte-wise reference: w[j] must equal GatherWord at position off+j
// for every lane count and every in-bounds offset.
func TestGatherWords8MatchesGatherWord(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	const stride = 37
	for lanes := 1; lanes <= Lanes; lanes++ {
		buf := make([]byte, stride*Lanes)
		r.Read(buf)
		var w [8]uint64
		for off := 0; off+8 <= stride; off++ {
			GatherWords8(buf, off, stride, lanes, &w)
			for j := 0; j < 8; j++ {
				if want := GatherWord(buf, off+j, stride, lanes); w[j] != want {
					t.Fatalf("GatherWords8(off=%d, lanes=%d)[%d] = %#x, want %#x", off, lanes, j, w[j], want)
				}
			}
		}
	}
}

// TestFusedXtimeWords checks the fused x^2/x^3 kernels against chained
// XtimeWord on full random words, so every lane value and every overflow
// bit combination is exercised.
func TestFusedXtimeWords(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 10000; i++ {
		v := rng.Uint64()
		if got, want := Xtime2Word(v), XtimeWord(XtimeWord(v)); got != want {
			t.Fatalf("Xtime2Word(%#x) = %#x, want %#x", v, got, want)
		}
		if got, want := Xtime3Word(v), XtimeWord(XtimeWord(XtimeWord(v))); got != want {
			t.Fatalf("Xtime3Word(%#x) = %#x, want %#x", v, got, want)
		}
	}
}
