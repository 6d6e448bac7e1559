#include "go_asm.h"
#include "textflag.h"

// FOLD reduces each lane of R by one Mersenne fold, R = R&M + R>>31,
// with T as scratch and MASK = M = 2^31-1 in every lane.
#define FOLD(R, T, MASK) \
	VPAND  MASK, R, T \
	VPSRLQ $31, R, R  \
	VPADDQ T, R, R

// func seedAVX2(x uint64, vec *[rngLen]int64)
//
// vec[i] = (x·seedPow0[i] mod M)<<40 ^ (x·seedPow1[i] mod M)<<20 ^
// (x·seedPow2[i] mod M) ^ seedCooked[i] for i < seedKernelWords, four at
// a time. x and every power lie in [1, M-1], so VPMULUDQ (low 32 bits of
// each lane) forms the exact product, below 2^62. The first fold leaves
// at most 2^32-2, the second at most M; M is prime, so the residue is
// never 0, and a value at most M that is neither 0 nor M is the residue.
TEXT ·seedAVX2(SB), NOSPLIT, $0-16
	VPBROADCASTQ x+0(FP), Y0
	MOVQ         vec+8(FP), DI
	MOVQ         $0x7fffffff, AX
	MOVQ         AX, X1
	VPBROADCASTQ X1, Y1
	LEAQ         ·seedPow0(SB), R8
	LEAQ         ·seedPow1(SB), R9
	LEAQ         ·seedPow2(SB), R10
	LEAQ         ·seedCooked(SB), R11
	XORQ         CX, CX
loop:
	VPMULUDQ (R8)(CX*8), Y0, Y2
	VPMULUDQ (R9)(CX*8), Y0, Y3
	VPMULUDQ (R10)(CX*8), Y0, Y4
	FOLD(Y2, Y5, Y1)
	FOLD(Y3, Y6, Y1)
	FOLD(Y4, Y7, Y1)
	FOLD(Y2, Y5, Y1)
	FOLD(Y3, Y6, Y1)
	FOLD(Y4, Y7, Y1)
	VPSLLQ   $40, Y2, Y2
	VPSLLQ   $20, Y3, Y3
	VPXOR    Y2, Y3, Y3
	VPXOR    Y3, Y4, Y4
	VPXOR    (R11)(CX*8), Y4, Y4
	VMOVDQU  Y4, (DI)(CX*8)
	ADDQ     $4, CX
	CMPQ     CX, $const_seedKernelWords
	JLT      loop
	VZEROUPPER
	RET

// FOLDZ is FOLD on ZMM registers.
#define FOLDZ(R, T, MASK) \
	VPANDQ MASK, R, T \
	VPSRLQ $31, R, R  \
	VPADDQ T, R, R

// COMBINEZ computes the eight words of vec from offset CX of the tables
// into Z4, as in seedAVX2.
#define COMBINEZ \
	VPMULUDQ (R8)(CX*8), Z0, Z2  \
	VPMULUDQ (R9)(CX*8), Z0, Z3  \
	VPMULUDQ (R10)(CX*8), Z0, Z4 \
	FOLDZ(Z2, Z5, Z1)            \
	FOLDZ(Z3, Z6, Z1)            \
	FOLDZ(Z4, Z7, Z1)            \
	FOLDZ(Z2, Z5, Z1)            \
	FOLDZ(Z3, Z6, Z1)            \
	FOLDZ(Z4, Z7, Z1)            \
	VPSLLQ   $40, Z2, Z2         \
	VPSLLQ   $20, Z3, Z3         \
	VPXORQ   Z2, Z3, Z3          \
	VPXORQ   Z3, Z4, Z4          \
	VPXORQ   (R11)(CX*8), Z4, Z4

// func seedAVX512(x uint64, vec *[rngLen]int64)
//
// seedAVX2 eight words at a time: words [0, seedZMMWords) in whole
// groups, then one group whose store is masked to its low four words, so
// it ends at seedKernelWords. Its loads read the tables' padding, and no
// store passes the register's end.
TEXT ·seedAVX512(SB), NOSPLIT, $0-16
	VPBROADCASTQ x+0(FP), Z0
	MOVQ         vec+8(FP), DI
	MOVQ         $0x7fffffff, AX
	VPBROADCASTQ AX, Z1
	LEAQ         ·seedPow0(SB), R8
	LEAQ         ·seedPow1(SB), R9
	LEAQ         ·seedPow2(SB), R10
	LEAQ         ·seedCooked(SB), R11
	XORQ         CX, CX
loopz:
	COMBINEZ
	VMOVDQU64 Z4, (DI)(CX*8)
	ADDQ      $8, CX
	CMPQ      CX, $const_seedZMMWords
	JLT       loopz
	COMBINEZ
	MOVL      $0x0f, AX
	KMOVW     AX, K1
	VMOVDQU64 Z4, K1, (DI)(CX*8)
	VZEROUPPER
	RET

// func runsAVX512(vec *[rngLen]int64, tap, feed, n int, rot []int64, off, runLen, step int) (d int, above int64)
//
// Makes up to n Int63 draws from the register at tap and feed, which n
// must not wrap (n <= tap, n <= feed), comparing draw j with
// rot[8·off + 7 - j%8] of its group, and stops after the first draw
// above its bound. It returns the draws made, d, and the draw that ended
// the run (-1 when none did, d = n). The draws walk the register
// downward, so eight consecutive ones read and write the eight words
// below tap and feed with the first draw in the top lane; no feed word
// lies within eight of a tap word, so the eight sums are independent.
// Each full group adds the tap and feed words, masks the sums to 63 bits
// and compares them with the group's row of rot (the bounds rotated to
// the group's offset, off, which advances by step = 8 mod runLen). A
// group with no draw above its bound stores all eight sums; one with a
// hit stores the lanes from the first draw to the hit only. Fewer than
// eight draws left run as one group masked to its top lanes, whose loads
// are masked too, so no load reads below the register.
TEXT ·runsAVX512(SB), NOSPLIT, $0-96
	MOVQ         vec+0(FP), DI
	MOVQ         tap+8(FP), SI
	MOVQ         feed+16(FP), DX
	MOVQ         n+24(FP), CX
	MOVQ         rot_base+32(FP), R8
	MOVQ         off+56(FP), R9
	MOVQ         runLen+64(FP), R10
	MOVQ         step+72(FP), R11
	XORQ         R12, R12
	MOVQ         $0x7fffffffffffffff, AX
	VPBROADCASTQ AX, Z2
	CMPQ         CX, $8
	JLT          tail

group:
	VMOVDQU64 -64(DI)(SI*8), Z0
	VPADDQ    -64(DI)(DX*8), Z0, Z0
	VPANDQ    Z2, Z0, Z1
	MOVQ      R9, AX
	SHLQ      $6, AX
	VPCMPGTQ  (R8)(AX*1), Z1, K1
	KORTESTW  K1, K1
	JNE       hit
	VMOVDQU64 Z0, -64(DI)(DX*8)
	SUBQ      $8, SI
	SUBQ      $8, DX
	ADDQ      $8, R12
	ADDQ      R11, R9
	CMPQ      R9, R10
	JLT       next
	SUBQ      R10, R9

next:
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  group

tail:
	TESTQ       CX, CX
	JEQ         whole
	MOVL        $0xff00, BX
	SHRL        CX, BX
	KMOVW       BX, K2
	VMOVDQU64.Z -64(DI)(SI*8), K2, Z0
	VPADDQ.Z    -64(DI)(DX*8), Z0, K2, Z0
	VPANDQ      Z2, Z0, Z1
	MOVQ        R9, AX
	SHLQ        $6, AX
	VPCMPGTQ    (R8)(AX*1), Z1, K2, K1
	KORTESTW    K1, K1
	JNE         hit
	VMOVDQU64   Z0, K2, -64(DI)(DX*8)
	ADDQ        CX, R12

whole:
	MOVQ       R12, d+80(FP)
	MOVQ       $-1, above+88(FP)
	VZEROUPPER
	RET

// The top lane of K1 is the first draw above its bound, BX = its lane.
// Lanes BX..7 hold the draws up to it, and only those are stored.
hit:
	KMOVW     K1, AX
	BSRL      AX, BX
	MOVL      $0xff, AX
	MOVL      BX, CX
	SHLL      CX, AX
	KMOVW     AX, K3
	VMOVDQU64 Z0, K3, -64(DI)(DX*8)
	LEAQ      -64(DI)(DX*8), AX
	MOVQ      (AX)(BX*8), AX
	BTRQ      $63, AX
	MOVQ      AX, above+88(FP)
	ADDQ      $8, R12
	SUBQ      BX, R12
	MOVQ      R12, d+80(FP)
	VZEROUPPER
	RET
