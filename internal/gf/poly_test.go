package gf

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func randPoly(r *rand.Rand, maxDeg int) Polynomial {
	n := r.Intn(maxDeg + 2)
	p := make(Polynomial, n)
	for i := range p {
		p[i] = Elem(r.Intn(Size))
	}
	return PolyTrim(p)
}

func TestPolyTrim(t *testing.T) {
	p := Polynomial{1, 2, 0, 0}
	if got := PolyTrim(p); len(got) != 2 {
		t.Fatalf("PolyTrim len = %d, want 2", len(got))
	}
	if got := PolyTrim(Polynomial{0, 0}); len(got) != 0 {
		t.Fatalf("PolyTrim of zero poly len = %d, want 0", len(got))
	}
}

func TestPolyMulByConstant(t *testing.T) {
	p := Polynomial{1, 2, 3}
	got := PolyMul(p, Polynomial{2})
	want := Polynomial{Mul(1, 2), Mul(2, 2), Mul(3, 2)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PolyMul by const = %v, want %v", got, want)
	}
}

func TestPolyMulDegreeAdds(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a, b := randPoly(r, 8), randPoly(r, 8)
		da, db := len(a)-1, len(b)-1 // randPoly trims, so -1 is the zero polynomial
		dm := len(PolyMul(a, b)) - 1
		if da < 0 || db < 0 {
			if dm != -1 {
				t.Fatalf("mul with zero poly has degree %d", dm)
			}
			continue
		}
		if dm != da+db {
			t.Fatalf("deg(a*b) = %d, want %d + %d", dm, da, db)
		}
	}
}

func TestPolyEvalHorner(t *testing.T) {
	// p(x) = 3 + 2x + x^2 evaluated the long way.
	p := Polynomial{3, 2, 1}
	for x := 0; x < Size; x++ {
		e := Elem(x)
		want := 3 ^ Mul(2, e) ^ Mul(e, e)
		if got := PolyEval(p, e); got != want {
			t.Fatalf("PolyEval(p, %d) = %d, want %d", x, got, want)
		}
	}
}

func TestPolyMulCommutative(t *testing.T) {
	f := func(a, b []byte) bool {
		pa, pb := PolyTrim(Polynomial(a)), PolyTrim(Polynomial(b))
		return reflect.DeepEqual(PolyMul(pa, pb), PolyMul(pb, pa))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPolyEvalRootOfLinearFactor(t *testing.T) {
	// (x - r) has root r: eval of PolyMul(anything, (x-r)) at r is 0.
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		root := Elem(r.Intn(Size))
		factor := Polynomial{root, 1} // x + root == x - root
		p := PolyMul(randPoly(r, 6), factor)
		if got := PolyEval(p, root); got != 0 {
			t.Fatalf("polynomial with root %d evaluates to %d", root, got)
		}
	}
}
