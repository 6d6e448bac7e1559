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

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
