package rs

import (
	"fmt"

	"arcc/internal/gf"
)

// Result reports the outcome of a successful scalar decode.
type Result struct {
	// Corrected is the repaired codeword. It aliases the Scratch the
	// decode ran against.
	Corrected []byte
	// ErrorPositions lists the codeword positions (0-based, data-first) at
	// which symbols were corrected, in increasing order.
	ErrorPositions []int
}

// Scratch is a reusable decode workspace. A Scratch holds every buffer the
// decoder needs — syndromes, Berlekamp–Massey state, locator products,
// Chien accumulators, Forney magnitudes, and the corrected codeword — so
// that steady-state decoding performs zero heap allocations.
//
// A Scratch belongs to one decode call at a time: it is not safe for
// concurrent use, and the Result returned by DecodeScratch aliases the
// scratch's buffers, valid only until the next call that reuses the
// Scratch. Callers that need the result to outlive the scratch must copy
// it.
type Scratch struct {
	out    []byte // corrected codeword, length N
	syn    []byte // syndromes, length N-K
	modSyn []byte // erasure-modified syndromes, length N-K

	// Berlekamp–Massey rotates three polynomial buffers (sigma, prev,
	// scratch); each holds at most N-K+1 coefficients, with headroom for
	// the untrimmed update term.
	bmA, bmB, bmC []byte

	gamma []byte // erasure locator, degree <= N-K
	psi   []byte // combined locator sigma*gamma

	omega []byte // Forney error evaluator, degree < N-K
	deriv []byte // formal derivative of the locator

	terms     []byte // incremental Chien per-coefficient accumulators
	roots     []byte // locator values X_j of found positions
	rootInv   []byte // inverse locators (the Chien query points)
	mags      []byte // Forney magnitudes
	positions []int  // codeword positions of found roots

	// bad backs BatchResult.Bad for the batch decoder (batch.go). It
	// grows on the first batch that reports uncorrectable lanes and is
	// reused afterwards.
	bad []int
}

// NewScratch allocates a decode workspace sized for the code.
func (c *Code) NewScratch() *Scratch {
	nk := c.n - c.k
	return &Scratch{
		out:       make([]byte, c.n),
		syn:       make([]byte, nk),
		modSyn:    make([]byte, nk),
		bmA:       make([]byte, 0, 2*nk+4),
		bmB:       make([]byte, 0, 2*nk+4),
		bmC:       make([]byte, 0, 2*nk+4),
		gamma:     make([]byte, 0, nk+2),
		psi:       make([]byte, 0, 2*nk+4),
		omega:     make([]byte, nk),
		deriv:     make([]byte, 0, nk+2),
		terms:     make([]byte, nk+2),
		roots:     make([]byte, 0, nk+2),
		rootInv:   make([]byte, 0, nk+2),
		mags:      make([]byte, nk+2),
		positions: make([]int, 0, nk+2),
		bad:       make([]int, 0, batchLanes),
	}
}

// DecodeScratch corrects the erased positions (erasures, nil for none) and
// additionally up to maxErrors unknown-position errors in cw using the
// workspace s, with zero heap allocations, subject to the distance bound
// 2*maxErrors + len(erasures) <= N-K. It returns ErrUncorrectable when the
// error pattern is detected but exceeds the bound; more erasures than check
// symbols return ErrUncorrectable too. The input is not modified. The
// returned Result aliases s's buffers and is valid until s's next use.
//
// Memory controllers use the bound to implement policy: commercial SCCDCD
// decodes its 4-check-symbol code with no erasures and a bound of one error,
// so that the residual check capacity guarantees detection of a second bad
// symbol; double chip sparing, once a failed device has been identified,
// erases its symbol position and corrects one more.
func (c *Code) DecodeScratch(cw []byte, erasures []int, maxErrors int, s *Scratch) (Result, error) {
	if len(cw) != c.n {
		panic(fmt.Sprintf("rs: DecodeScratch called with %d symbols, want %d", len(cw), c.n))
	}
	if len(erasures) > c.n-c.k {
		return Result{}, ErrUncorrectable
	}
	c.checkDecodeArgs(erasures, maxErrors)
	out := s.out
	copy(out, cw)

	syn := c.SyndromesInto(cw, s.syn)
	if allZero(syn) {
		return Result{Corrected: out}, nil
	}

	// Erasure locator Gamma(x) = prod over erasures of (1 + X_j x), where
	// X_j = alpha^(n-1-pos) is the locator of codeword position pos. Built
	// in place, one multiply-accumulate sweep per erasure, off the
	// precomputed per-position locator rows. With no erasures Gamma = 1,
	// and the modified syndromes and the combined locator below are the
	// syndromes and Sigma themselves.
	gamma := s.gamma[:1]
	gamma[0] = 1
	for _, pos := range erasures {
		row := c.posRootRows[pos]
		gamma = gamma[:len(gamma)+1]
		gamma[len(gamma)-1] = 0
		for i := len(gamma) - 1; i >= 1; i-- {
			gamma[i] ^= row[gamma[i-1]]
		}
	}

	// Modified syndromes Xi(x) = [S(x) * Gamma(x)] mod x^(n-k).
	modSyn := syn
	if len(erasures) > 0 {
		modSyn = s.modSyn
		clear(modSyn)
		mulAddTruncated(modSyn, syn, gamma)
	}

	// With e erasures, only the modified syndromes at indices e..nk-1 obey
	// the error-locator LFSR recurrence, so Berlekamp–Massey runs on that
	// suffix (capacity floor((nk-e)/2) unknown errors). With no unknown
	// errors allowed, a nonzero suffix means the pattern exceeds the
	// erasure capacity: detected, not correctable.
	var positions []int
	var roots, rootInv, locator []byte
	if maxErrors > 0 {
		sigma := berlekampMasseyInto(modSyn[len(erasures):], s)
		if len(sigma)-1 > maxErrors {
			return Result{}, ErrUncorrectable
		}
		locator = sigma
		if len(erasures) > 0 {
			// Combined locator Psi(x) = Sigma(x) * Gamma(x); its roots
			// cover both unknown error positions and erased positions.
			psi := s.psi[:len(sigma)+len(gamma)-1]
			clear(psi)
			for i, v := range sigma {
				gf.MulAddSlice(psi[i:i+len(gamma)], gamma, v)
			}
			locator = gf.PolyTrim(psi)
		}
		positions, roots, rootInv = c.chienInto(locator, s)
		if len(positions) != len(locator)-1 {
			return Result{}, ErrUncorrectable
		}
	} else {
		if !allZero(modSyn[len(erasures):]) {
			return Result{}, ErrUncorrectable
		}
		// Pure-erasure fast path: the combined locator is Gamma itself and
		// its roots are exactly the erased positions, so the Chien search
		// (and Berlekamp–Massey, trivially sigma = 1) is skipped entirely.
		// Record the positions ascending — the order the search would have
		// found them — and read the locators and their inverses straight
		// from the precomputed per-position tables.
		positions = s.positions[:0]
		for _, p := range erasures {
			positions = append(positions, p)
			for i := len(positions) - 1; i > 0 && positions[i-1] > positions[i]; i-- {
				positions[i-1], positions[i] = positions[i], positions[i-1]
			}
		}
		roots = s.roots[:len(positions)]
		rootInv = s.rootInv[:len(positions)]
		for i, p := range positions {
			roots[i] = c.posRoot[p]
			rootInv[i] = c.posRootInv[p]
		}
		locator = gamma
	}
	mags := c.forneyInto(syn, locator, roots, rootInv, s)
	for i, pos := range positions {
		out[pos] ^= mags[i]
	}
	if !checkCorrected(syn, roots, mags, s.modSyn) {
		return Result{}, ErrUncorrectable
	}
	// Report only the positions whose symbols actually changed: an erased
	// position may turn out to have held the right value.
	n := 0
	for i, pos := range positions {
		if mags[i] != 0 {
			positions[n] = pos
			n++
		}
	}
	if n == 0 {
		return Result{Corrected: out}, nil
	}
	return Result{Corrected: out, ErrorPositions: positions[:n]}, nil
}

// checkDecodeArgs panics on a decode bound no decoder of this code accepts:
// a negative maxErrors, a bound beyond the distance limit
// 2*maxErrors + len(erasures) <= N-K (for errors only, maxErrors <=
// floor((N-K)/2)), or an erasure position out of range or repeated. These
// are caller bugs, not error patterns, so they panic instead of returning
// ErrUncorrectable.
func (c *Code) checkDecodeArgs(erasures []int, maxErrors int) {
	if nk := c.n - c.k; maxErrors < 0 || 2*maxErrors+len(erasures) > nk {
		panic(fmt.Sprintf("rs: %d errors + %d erasures out of range: need 2*errors + erasures <= %d", maxErrors, len(erasures), nk))
	}
	for i, p := range erasures {
		if p < 0 || p >= c.n {
			panic(fmt.Sprintf("rs: erasure position %d out of range [0, %d)", p, c.n))
		}
		for _, q := range erasures[:i] {
			if q == p {
				panic(fmt.Sprintf("rs: duplicate erasure position %d", p))
			}
		}
	}
}

// berlekampMasseyInto finds the minimal error-locator polynomial sigma(x)
// with sigma(0) = 1 for the given syndrome sequence. The result is trimmed
// and aliases one of s's rotating buffers.
func berlekampMasseyInto(syn []byte, s *Scratch) []byte {
	sigma := s.bmA[:1]
	sigma[0] = 1
	prev := s.bmB[:1]
	prev[0] = 1
	tmp := s.bmC
	var l, m int = 0, 1
	var b byte = 1
	for n := 0; n < len(syn); n++ {
		// Discrepancy d = S_n + sum_{i=1..l} sigma_i * S_{n-i}.
		d := syn[n]
		for i := 1; i <= l && i < len(sigma); i++ {
			d ^= gf.Mul(sigma[i], syn[n-i])
		}
		if d == 0 {
			m++
			continue
		}
		coef := gf.Mul(d, gf.Inv(b))
		// t(x) = sigma(x) - coef * x^m * prev(x), trimmed.
		tl := m + len(prev)
		if len(sigma) > tl {
			tl = len(sigma)
		}
		tmp = tmp[:tl]
		for i := range tmp {
			tmp[i] = 0
		}
		copy(tmp, sigma)
		gf.MulAddSlice(tmp[m:m+len(prev)], prev, coef)
		tmp = gf.PolyTrim(tmp)
		if 2*l <= n {
			l = n + 1 - l
			b = d
			m = 1
			sigma, prev, tmp = tmp, sigma, prev
		} else {
			m++
			sigma, tmp = tmp, sigma
		}
	}
	return sigma
}

// chienInto runs the incremental Chien search: it finds the codeword
// positions whose locators are roots of the locator polynomial (trimmed,
// degree >= 0), in increasing position order, together with the locator
// values X_j and their inverses. The returned slices alias s's buffers.
//
// Instead of evaluating the polynomial from scratch at every position, it
// keeps one running accumulator per coefficient: term i starts at
// locator[i] * alpha^(-(n-1)*i) — its value at the locator inverse of
// position 0 — and stepping to the next position multiplies term i by the
// constant alpha^i (a precomputed table row). The locator's value at a
// position is then just the XOR of the terms: no Inv, no PolyEval. A
// degree-d polynomial has at most d roots, so the search stops as soon as
// d have been found; degrees 1 and 2 (every bounded-1 decode and the full
// (36,32) decode) run unrolled with the accumulators in registers.
func (c *Code) chienInto(locator []byte, s *Scratch) (positions []int, roots, rootInv []byte) {
	deg := len(locator) - 1
	positions = s.positions[:0]
	roots = s.roots[:0]
	rootInv = s.rootInv[:0]
	if deg <= 0 {
		return positions, roots, rootInv
	}
	terms := s.terms[:deg+1]
	for i := range terms {
		terms[i] = gf.Mul(locator[i], c.chienInit[i])
	}
	switch deg {
	case 1:
		t0, t1 := terms[0], terms[1]
		step1 := c.stepRows[1]
		for pos := 0; pos < c.n; pos++ {
			if t0^t1 == 0 {
				return append(positions, pos), append(roots, c.posRoot[pos]), append(rootInv, c.posRootInv[pos])
			}
			t1 = step1[t1]
		}
	case 2:
		t0, t1, t2 := terms[0], terms[1], terms[2]
		step1, step2 := c.stepRows[1], c.stepRows[2]
		for pos := 0; pos < c.n; pos++ {
			if t0^t1^t2 == 0 {
				positions = append(positions, pos)
				roots = append(roots, c.posRoot[pos])
				rootInv = append(rootInv, c.posRootInv[pos])
				if len(positions) == 2 {
					return positions, roots, rootInv
				}
			}
			t1 = step1[t1]
			t2 = step2[t2]
		}
	default:
		for pos := 0; pos < c.n; pos++ {
			var sum byte
			for _, t := range terms {
				sum ^= t
			}
			if sum == 0 {
				positions = append(positions, pos)
				roots = append(roots, c.posRoot[pos])
				rootInv = append(rootInv, c.posRootInv[pos])
				if len(positions) == deg {
					return positions, roots, rootInv
				}
			}
			for i := 1; i <= deg; i++ {
				terms[i] = c.stepRows[i][terms[i]]
			}
		}
	}
	return positions, roots, rootInv
}

// forneyInto computes error magnitudes for the located errors using the
// Forney algorithm with first consecutive root alpha^0. The returned slice
// aliases s's buffers.
func (c *Code) forneyInto(syn, locator, roots, rootInv []byte, s *Scratch) []byte {
	// Omega(x) = [S(x) * locator(x)] mod x^(n-k), trimmed.
	omega := s.omega
	for i := range omega {
		omega[i] = 0
	}
	mulAddTruncated(omega, syn, locator)
	omega = gf.PolyTrim(omega)
	// deriv = locator'; in characteristic 2 the even-power terms vanish.
	deriv := s.deriv[:0]
	if len(locator) >= 2 {
		deriv = s.deriv[:len(locator)-1]
		for i := range deriv {
			deriv[i] = 0
		}
		for i := 1; i < len(locator); i += 2 {
			deriv[i-1] = locator[i]
		}
		deriv = gf.PolyTrim(deriv)
	}
	mags := s.mags[:len(roots)]
	for i, x := range roots {
		mags[i] = 0
		xInv := rootInv[i]
		den := gf.PolyEval(deriv, xInv)
		if den == 0 {
			// Repeated root: the locator is degenerate; magnitude 0 will
			// force the caller's consistency check to fail.
			continue
		}
		num := gf.PolyEval(omega, xInv)
		// e_j = X_j^(1-b) * Omega(X_j^-1) / Lambda'(X_j^-1), with b = 0.
		mags[i] = gf.Mul(x, gf.Div(num, den))
	}
	return mags
}

// checkCorrected reports whether the corrected codeword is consistent,
// without re-evaluating it: correcting magnitude m_j at the position with
// locator X_j shifts syndrome S_i by m_j * X_j^i, so the corrected word's
// syndromes are syn[i] ^ sum_j m_j * X_j^i — exact GF(2^8) algebra, a few
// table lookups instead of another full syndrome pass. chk is a caller
// buffer of length N-K.
func checkCorrected(syn, roots, mags, chk []byte) bool {
	copy(chk, syn)
	for j, x := range roots {
		m := mags[j]
		if m == 0 {
			continue
		}
		row := gf.MulRow(x)
		for i := range chk {
			chk[i] ^= m // m == mags[j] * x^i at step i
			m = row[m]
		}
	}
	return allZero(chk)
}

// mulAddTruncated adds a*b into dst, keeping only the coefficients below
// len(dst): dst += (a*b) mod x^len(dst).
func mulAddTruncated(dst, a, b []byte) {
	for i, v := range a {
		if v == 0 || i >= len(dst) {
			continue
		}
		end := len(dst) - i
		if end > len(b) {
			end = len(b)
		}
		gf.MulAddSlice(dst[i:i+end], b[:end], v)
	}
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
