//go:build amd64 && !purego

#include "textflag.h"

// Rows shorter than one 4-wide vector run the Go loop: the vector set-up
// costs more than it saves there.
#define minVecLen 4

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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The row kernels below share one shape: a dispatch that jumps to the Go
// loop without AVX2 or below minVecLen, a 16-element loop of four
// independent YMM chains, a 4-element loop, then a scalar tail. Every
// product is a VMULPD/VMULSD and every sum a separate VADDPD/VADDSD, never a
// fused multiply-add, so each element rounds exactly as the Go loop does.
// Loop heads are aligned so their speed does not depend on code placement.

// func axpyRow(dst []float64, alpha float64, x []float64)
TEXT ·axpyRow(SB), NOSPLIT, $0-56
	MOVQ         dst_len+8(FP), CX
	CMPQ         CX, $minVecLen
	JB           axpygo
	CMPB         ·useAVX2(SB), $0
	JEQ          axpygo
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+32(FP), SI
	VBROADCASTSD alpha+24(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-16, DX
	JZ           axpy4

	PCALIGN $32
axpy16:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VMULPD  64(SI)(AX*8), Y0, Y3
	VMULPD  96(SI)(AX*8), Y0, Y4
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VADDPD  64(DI)(AX*8), Y3, Y3
	VADDPD  96(DI)(AX*8), Y4, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, DX
	JB      axpy16

axpy4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JAE  axpy1

	PCALIGN $32
axpy4loop:
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      axpy4loop

axpy1:
	CMPQ AX, CX
	JAE  axpydone

axpy1loop:
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JB     axpy1loop

axpydone:
	VZEROUPPER
	RET

axpygo:
	JMP ·axpyRowGo(SB)

// func mulAddRow(dst, a, b []float64)
TEXT ·mulAddRow(SB), NOSPLIT, $0-72
	MOVQ dst_len+8(FP), CX
	CMPQ CX, $minVecLen
	JB   muladdgo
	CMPB ·useAVX2(SB), $0
	JEQ  muladdgo
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	JZ   muladd4

	PCALIGN $32
muladd16:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMOVUPD 64(SI)(AX*8), Y3
	VMOVUPD 96(SI)(AX*8), Y4
	VMULPD  (BX)(AX*8), Y1, Y1
	VMULPD  32(BX)(AX*8), Y2, Y2
	VMULPD  64(BX)(AX*8), Y3, Y3
	VMULPD  96(BX)(AX*8), Y4, Y4
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VADDPD  64(DI)(AX*8), Y3, Y3
	VADDPD  96(DI)(AX*8), Y4, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, DX
	JB      muladd16

muladd4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JAE  muladd1

	PCALIGN $32
muladd4loop:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (BX)(AX*8), Y1, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      muladd4loop

muladd1:
	CMPQ AX, CX
	JAE  muladddone

muladd1loop:
	VMOVSD (SI)(AX*8), X1
	VMULSD (BX)(AX*8), X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JB     muladd1loop

muladddone:
	VZEROUPPER
	RET

muladdgo:
	JMP ·mulAddRowGo(SB)

// func scaledMulAddRow(dst []float64, alpha float64, a, b []float64)
TEXT ·scaledMulAddRow(SB), NOSPLIT, $0-80
	MOVQ         dst_len+8(FP), CX
	CMPQ         CX, $minVecLen
	JB           smuladdgo
	CMPB         ·useAVX2(SB), $0
	JEQ          smuladdgo
	MOVQ         dst_base+0(FP), DI
	MOVQ         a_base+32(FP), SI
	MOVQ         b_base+56(FP), BX
	VBROADCASTSD alpha+24(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-16, DX
	JZ           smuladd4

	PCALIGN $32
smuladd16:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VMULPD  64(SI)(AX*8), Y0, Y3
	VMULPD  96(SI)(AX*8), Y0, Y4
	VMULPD  (BX)(AX*8), Y1, Y1
	VMULPD  32(BX)(AX*8), Y2, Y2
	VMULPD  64(BX)(AX*8), Y3, Y3
	VMULPD  96(BX)(AX*8), Y4, Y4
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VADDPD  64(DI)(AX*8), Y3, Y3
	VADDPD  96(DI)(AX*8), Y4, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, DX
	JB      smuladd16

smuladd4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JAE  smuladd1

	PCALIGN $32
smuladd4loop:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  (BX)(AX*8), Y1, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      smuladd4loop

smuladd1:
	CMPQ AX, CX
	JAE  smuladddone

smuladd1loop:
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VMULSD (BX)(AX*8), X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JB     smuladd1loop

smuladddone:
	VZEROUPPER
	RET

smuladdgo:
	JMP ·scaledMulAddRowGo(SB)

// func scaledMulAddRows(n int, dst []float64, do []int, vals []float64, a []float64, ao []int, b []float64, bo []int, dstLim, aLim, bLim int) (bad int)
//
// One scaledMulAddRow per k, in order, on the n-element rows at the given
// element offsets. Each row's offsets are checked against the limits, as
// unsigned so a negative offset fails too, before the row is touched; the
// first failing k is returned, -1 when every row was applied. The row loops
// walk the three row pointers forward and count the elements left in AX,
// which leaves a register for every base.
TEXT ·scaledMulAddRows(SB), NOSPLIT, $0-208
	MOVQ  n+0(FP), CX
	CMPQ  CX, $minVecLen
	JB    rowsgo
	CMPB  ·useAVX2(SB), $0
	JEQ   rowsgo
	MOVQ  dst_base+8(FP), R8
	MOVQ  do_base+32(FP), R9
	MOVQ  vals_base+56(FP), R10
	MOVQ  a_base+80(FP), R12
	MOVQ  ao_base+104(FP), R14
	MOVQ  b_base+128(FP), R13
	MOVQ  bo_base+152(FP), DX
	XORQ  R11, R11
	CMPQ  R11, vals_len+64(FP)
	JAE   rowsdone

rowsloop:
	MOVQ         (R9)(R11*8), DI
	CMPQ         DI, dstLim+176(FP)
	JA           rowsbad
	MOVQ         (R14)(R11*8), SI
	CMPQ         SI, aLim+184(FP)
	JA           rowsbad
	MOVQ         (DX)(R11*8), BX
	CMPQ         BX, bLim+192(FP)
	JA           rowsbad
	LEAQ         (R8)(DI*8), DI
	LEAQ         (R12)(SI*8), SI
	LEAQ         (R13)(BX*8), BX
	VBROADCASTSD (R10)(R11*8), Y0
	MOVQ         CX, AX
	CMPQ         AX, $16
	JB           rows4

	PCALIGN $32
rows16:
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VMULPD  64(SI), Y0, Y3
	VMULPD  96(SI), Y0, Y4
	VMULPD  (BX), Y1, Y1
	VMULPD  32(BX), Y2, Y2
	VMULPD  64(BX), Y3, Y3
	VMULPD  96(BX), Y4, Y4
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VADDPD  64(DI), Y3, Y3
	VADDPD  96(DI), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, BX
	ADDQ    $128, DI
	SUBQ    $16, AX
	CMPQ    AX, $16
	JAE     rows16

rows4:
	CMPQ AX, $4
	JB   rows1

rows4loop:
	VMULPD  (SI), Y0, Y1
	VMULPD  (BX), Y1, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, DI
	SUBQ    $4, AX
	CMPQ    AX, $4
	JAE     rows4loop

rows1:
	TESTQ AX, AX
	JZ    rowsnext

rows1loop:
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VMULSD (BX), X1, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, BX
	ADDQ   $8, DI
	DECQ   AX
	JNZ    rows1loop

rowsnext:
	INCQ R11
	CMPQ R11, vals_len+64(FP)
	JB   rowsloop

rowsdone:
	MOVQ $-1, bad+200(FP)
	VZEROUPPER
	RET

rowsbad:
	MOVQ R11, bad+200(FP)
	VZEROUPPER
	RET

rowsgo:
	JMP ·scaledMulAddRowsGo(SB)
