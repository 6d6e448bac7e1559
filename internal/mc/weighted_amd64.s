#include "textflag.h"

// WELFORD is the Welford step of Add on eight dimensions at offset AX:
// y = w·vals, sumWX += y, dy = y - mean, mean += dy/n,
// m2 += dy·(y - mean), with w in Z0 and n in Z1. Each lane does the Go
// loop's IEEE-754 operations in its order, multiply and add apart. vals
// is loaded on the lanes of K1 (zeros elsewhere); sumWX, mean and m2 are
// loaded and stored whole, into their padding past the last dimension,
// where y is 0 and so every sum stays 0.
#define WELFORD \
	VMOVUPD.Z (R11)(AX*8), K1, Z2 \
	VMULPD    Z2, Z0, Z2          \
	VADDPD    (DI)(AX*8), Z2, Z3  \
	VMOVUPD   Z3, (DI)(AX*8)      \
	VMOVUPD   (SI)(AX*8), Z4      \
	VSUBPD    Z4, Z2, Z5          \
	VDIVPD    Z1, Z5, Z6          \
	VADDPD    Z6, Z4, Z4          \
	VMOVUPD   Z4, (SI)(AX*8)      \
	VSUBPD    Z4, Z2, Z7          \
	VMULPD    Z7, Z5, Z7          \
	VADDPD    (DX)(AX*8), Z7, Z8  \
	VMOVUPD   Z8, (DX)(AX*8)

// func addAVX512(sumWX, mean, m2, vals []float64, w, n float64)
//
// Dimensions [0, len(sumWX)) in whole groups of eight, then one group
// whose vals load is masked to the rest.
TEXT ·addAVX512(SB), NOSPLIT, $0-112
	MOVQ         sumWX_base+0(FP), DI
	MOVQ         sumWX_len+8(FP), CX
	MOVQ         mean_base+24(FP), SI
	MOVQ         m2_base+48(FP), DX
	MOVQ         vals_base+72(FP), R11
	VBROADCASTSD w+96(FP), Z0
	VBROADCASTSD n+104(FP), Z1
	XORQ         AX, AX
	MOVL         $0xff, BX
	KMOVW        BX, K1
	CMPQ         CX, $8
	JLT          tail

group:
	WELFORD
	ADDQ $8, AX
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  group

tail:
	TESTQ CX, CX
	JEQ   done
	MOVL  $1, BX
	SHLL  CX, BX
	DECL  BX
	KMOVW BX, K1
	WELFORD

done:
	VZEROUPPER
	RET
