#include "textflag.h"

// func pageSeriesAVX512(arrivals []faultmodel.Arrival, frac *[faultmodel.NumTypes]float64, ends, series []float64)
//
// Lane y of Z1 is year y's total, from +0. Each arrival, in order (32
// bytes each: AtHours at 0, Type at 8), adds frac[Type] to the lanes
// whose year end it arrived by (AtHours <= ends[y], false for a NaN
// time), a merge-masked add; K1 masks the lanes to the len(ends) <= 8
// years. The totals are capped as min(1, total), which is total > 1 ? 1
// : total for every total, NaN included. All eight lanes are stored, the
// ones past len(ends) as 0 (series has the capacity), so that the
// weighted set's loads of the series forward from one whole store.
TEXT ·pageSeriesAVX512(SB), NOSPLIT, $0-80
	MOVQ         arrivals_base+0(FP), SI
	MOVQ         arrivals_len+8(FP), DX
	MOVQ         frac+24(FP), R8
	MOVQ         ends_base+32(FP), R9
	MOVQ         ends_len+40(FP), CX
	MOVQ         series_base+56(FP), DI
	MOVL         $1, AX
	SHLL         CX, AX
	DECL         AX
	KMOVW        AX, K1
	VMOVUPD.Z    (R9), K1, Z0
	VPXORQ       Z1, Z1, Z1
	TESTQ        DX, DX
	JEQ          cap

arrival:
	VBROADCASTSD (SI), Z2
	MOVQ         8(SI), AX
	VBROADCASTSD (R8)(AX*8), Z3
	VCMPPD       $2, Z0, Z2, K1, K2
	VADDPD       Z3, Z1, K2, Z1
	ADDQ         $32, SI
	DECQ         DX
	JNE          arrival

cap:
	MOVQ         $0x3ff0000000000000, AX
	VPBROADCASTQ AX, Z4
	VMINPD       Z1, Z4, Z5
	VMOVUPD      Z5, (DI)
	VZEROUPPER
	RET
