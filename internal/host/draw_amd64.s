#include "textflag.h"

// expNormals, the vector kernel of draw_amd64.go. Each lane runs the
// scalar path's operation sequence on an AVX2+FMA host: Log as
// math/log_amd64.s (no FMA), VSQRTPD, cosTurn, mu + sigma·x unfused as Go
// compiles it, and Exp as math/exp_amd64.s on its avxfma path. A lane where
// archExp would take a special case, a biased exponent outside (0, 0x7FF),
// is flagged for scalar; an argument that is NaN, infinite or above Overflow
// converts to such an exponent too.
// VEC defines name<> as four lanes of the float64 bit pattern bits.
#define VEC(name, bits) DATA name<>+0(SB)/8, $bits; DATA name<>+8(SB)/8, $bits; DATA name<>+16(SB)/8, $bits; DATA name<>+24(SB)/8, $bits; GLOBL name<>(SB), RODATA|NOPTR, $32

VEC(half, 0x3fe0000000000000)  // 0.5
VEC(one, 0x3ff0000000000000)   // 1
VEC(two, 0x4000000000000000)   // 2
VEC(mtwo, 0xc000000000000000)  // -2
VEC(two52, 0x4330000000000000) // 2^52: small integers live in its mantissa
VEC(k1022, 0x408ff00000000000) // 1022 = 0x3FE
VEC(mant, 0x000fffffffffffff)
VEC(bit1, 0x0000000000000001)
VEC(bit2, 0x0000000000000002)
VEC(sign, 0x8000000000000000)
VEC(hsqrt2, 0x3fe6a09e667f3bcd) // archLog: √2/2, Ln2Hi, Ln2Lo, L1-L7
VEC(ln2hi, 0x3fe62e42fee00000)
VEC(ln2lo, 0x3dea39ef35793c76)
VEC(l1, 0x3fe5555555555593)
VEC(l2, 0x3fd999999997fa04)
VEC(l3, 0x3fd2492494229359)
VEC(l4, 0x3fcc71c51d8e78af)
VEC(l5, 0x3fc7466496cb03de)
VEC(l6, 0x3fc39a09d078c69f)
VEC(l7, 0x3fc2f112df3e5244)
VEC(twopi, 0x401921fb54442d18) // cosTurn: 2π, 4/π, PI4A-C, sin and cos polynomials
VEC(fouroverpi, 0x3ff45f306dc9c883)
VEC(pi4a, 0x3fe921fb40000000)
VEC(pi4b, 0x3e64442d00000000)
VEC(pi4c, 0x3ce8469898cc5170)
VEC(s0, 0x3de5d8fd1fd19ccd)
VEC(s1, 0xbe5ae5e5a9291f5d)
VEC(s2, 0x3ec71de3567d48a1)
VEC(s3, 0xbf2a01a019bfdf03)
VEC(s4, 0x3f8111111110f7d0)
VEC(s5, 0xbfc5555555555548)
VEC(c0, 0xbda8fa49a0861a9b)
VEC(c1, 0x3e21ee9d7b4e3f05)
VEC(c2, 0xbe927e4f7eac4bc6)
VEC(c3, 0x3efa01a019c844f5)
VEC(c4, 0xbf56c16c16c14f91)
VEC(c5, 0x3fa555555555554b)
VEC(log2e, 0x3ff71547652b82fe) // archExp: LOG2E, LN2U, LN2L, 1/16, Taylor
VEC(ln2u, 0x3fe62e42fefa3000)
VEC(ln2l, 0x3d53de6af278ece6)
VEC(sixteenth, 0x3fb0000000000000)
VEC(e3, 0x3fc5555555555555)
VEC(e4, 0x3fa5555555555555)
VEC(e5, 0x3f81111111111111)
VEC(e6, 0x3f56c16c16c16c17)
VEC(e7, 0x3f2a01a01a01a01a)
VEC(e8, 0x3efa01a01a01a01a)
VEC(bias, 0x000003ff000003ff) // int32 lanes: exponent bias and limit
VEC(emax, 0x000007ff000007ff)

// func expNormals(u, v, out *[drawBlock]float64, mu, sigma float64, n int) (fallback uint64)
TEXT ·expNormals(SB), NOSPLIT, $0-56
	MOVQ u+0(FP), AX
	MOVQ v+8(FP), BX
	MOVQ out+16(FP), DI
	VBROADCASTSD mu+24(FP), Y15
	VBROADCASTSD sigma+32(FP), Y14
	MOVQ n+40(FP), DX
	XORQ R8, R8

	// One pass per stage, as the scalar loops: short pass bodies let the
	// core overlap more groups. Log: k is the exponent field less 0x3FE.
	XORQ CX, CX
logs:
	VMOVUPD  (AX)(CX*8), Y0
	VPSRLQ   $52, Y0, Y1
	VPOR     two52<>(SB), Y1, Y1
	VSUBPD   two52<>(SB), Y1, Y1
	VSUBPD   k1022<>(SB), Y1, Y1      // Y1 = k
	VANDPD   mant<>(SB), Y0, Y2
	VORPD    half<>(SB), Y2, Y2       // Y2 = f1
	VCMPPD   $1, hsqrt2<>(SB), Y2, Y3 // f1 < √2/2
	VANDPD   one<>(SB), Y3, Y3
	VSUBPD   Y3, Y1, Y1
	VADDPD   one<>(SB), Y3, Y3
	VMULPD   Y3, Y2, Y2
	VSUBPD   one<>(SB), Y2, Y2        // Y2 = f
	VADDPD   two<>(SB), Y2, Y3
	VDIVPD   Y3, Y2, Y3               // Y3 = s = f/(2+f)
	VMULPD   Y3, Y3, Y4               // Y4 = s2
	VMULPD   Y4, Y4, Y5               // Y5 = s4
	VMULPD   l7<>(SB), Y5, Y6
	VADDPD   l5<>(SB), Y6, Y6
	VMULPD   Y5, Y6, Y6
	VADDPD   l3<>(SB), Y6, Y6
	VMULPD   Y5, Y6, Y6
	VADDPD   l1<>(SB), Y6, Y6
	VMULPD   Y6, Y4, Y4               // Y4 = t1
	VMULPD   l6<>(SB), Y5, Y6
	VADDPD   l4<>(SB), Y6, Y6
	VMULPD   Y5, Y6, Y6
	VADDPD   l2<>(SB), Y6, Y6
	VMULPD   Y6, Y5, Y5               // Y5 = t2
	VADDPD   Y5, Y4, Y4               // Y4 = R
	VMULPD   half<>(SB), Y2, Y0
	VMULPD   Y2, Y0, Y0               // Y0 = hfsq
	VADDPD   Y0, Y4, Y4
	VMULPD   Y4, Y3, Y3
	VMULPD   ln2lo<>(SB), Y1, Y4
	VADDPD   Y4, Y3, Y3
	VSUBPD   Y3, Y0, Y0
	VSUBPD   Y2, Y0, Y0
	VMULPD   ln2hi<>(SB), Y1, Y1
	VSUBPD   Y0, Y1, Y1               // Y1 = Log u
	VMULPD   mtwo<>(SB), Y1, Y1
	VSQRTPD  Y1, Y1
	VMOVUPD  Y1, (DI)(CX*8)           // out = Sqrt(-2·Log u)
	ADDQ     $4, CX
	CMPQ     CX, DX
	JLT      logs

	XORQ CX, CX
cosines: // j = trunc(x·4/π) sits in the mantissa of 2^52 + j
	VMOVUPD  (BX)(CX*8), Y2
	VMULPD   twopi<>(SB), Y2, Y2      // Y2 = x
	VMULPD   fouroverpi<>(SB), Y2, Y3
	VROUNDPD $3, Y3, Y3
	VADDPD   two52<>(SB), Y3, Y3
	VPAND    bit1<>(SB), Y3, Y4
	VPADDQ   Y4, Y3, Y3               // Y3 = 2^52 + j, j even
	VSUBPD   two52<>(SB), Y3, Y4      // Y4 = y
	VMULPD   pi4a<>(SB), Y4, Y5
	VSUBPD   Y5, Y2, Y2
	VMULPD   pi4b<>(SB), Y4, Y5
	VSUBPD   Y5, Y2, Y2
	VMULPD   pi4c<>(SB), Y4, Y5
	VSUBPD   Y5, Y2, Y2               // Y2 = z
	VMULPD   Y2, Y2, Y4               // Y4 = zz
	VMULPD   s0<>(SB), Y4, Y5
	VADDPD   s1<>(SB), Y5, Y5
	VMULPD   Y4, Y5, Y5
	VADDPD   s2<>(SB), Y5, Y5
	VMULPD   Y4, Y5, Y5
	VADDPD   s3<>(SB), Y5, Y5
	VMULPD   Y4, Y5, Y5
	VADDPD   s4<>(SB), Y5, Y5
	VMULPD   Y4, Y5, Y5
	VADDPD   s5<>(SB), Y5, Y5
	VMULPD   Y4, Y2, Y6
	VMULPD   Y6, Y5, Y5
	VADDPD   Y5, Y2, Y5               // Y5 = sine arm
	VMULPD   c0<>(SB), Y4, Y6
	VADDPD   c1<>(SB), Y6, Y6
	VMULPD   Y4, Y6, Y6
	VADDPD   c2<>(SB), Y6, Y6
	VMULPD   Y4, Y6, Y6
	VADDPD   c3<>(SB), Y6, Y6
	VMULPD   Y4, Y6, Y6
	VADDPD   c4<>(SB), Y6, Y6
	VMULPD   Y4, Y6, Y6
	VADDPD   c5<>(SB), Y6, Y6
	VMULPD   Y4, Y4, Y7
	VMULPD   Y7, Y6, Y6
	VMULPD   half<>(SB), Y4, Y7
	VMOVUPD  one<>(SB), Y8
	VSUBPD   Y7, Y8, Y8
	VADDPD   Y6, Y8, Y6               // Y6 = cosine arm
	VPAND    bit2<>(SB), Y3, Y7
	VPCMPEQQ bit2<>(SB), Y7, Y7       // octants 2 and 6 take the sine arm
	VBLENDVPD Y7, Y5, Y6, Y6
	VPSLLQ   $62, Y3, Y7
	VPSLLQ   $61, Y3, Y8
	VPXOR    Y8, Y7, Y7
	VPAND    sign<>(SB), Y7, Y7       // j bit 1 xor bit 2, as the sign
	VXORPD   Y7, Y6, Y6               // Y6 = cosTurn(v)
	VMULPD   (DI)(CX*8), Y6, Y1
	VMULPD   Y14, Y1, Y1
	VADDPD   Y15, Y1, Y1
	VMOVUPD  Y1, (DI)(CX*8)           // out = mu + sigma·normal, Exp's argument
	ADDQ     $4, CX
	CMPQ     CX, DX
	JLT      cosines

	XORQ CX, CX
exps: // VCVTPD2DQ rounds to nearest, as archExp's CVTSD2SL
	VMOVUPD  (DI)(CX*8), Y1
	VMULPD   log2e<>(SB), Y1, Y2
	VCVTPD2DQY Y2, X3                 // X3 = k as int32
	VCVTDQ2PD X3, Y2
	VFNMADD231PD ln2u<>(SB), Y2, Y1
	VFNMADD231PD ln2l<>(SB), Y2, Y1
	VMULPD   sixteenth<>(SB), Y1, Y1
	VMOVUPD  e8<>(SB), Y2
	VFMADD213PD e7<>(SB), Y1, Y2
	VFMADD213PD e6<>(SB), Y1, Y2
	VFMADD213PD e5<>(SB), Y1, Y2
	VFMADD213PD e4<>(SB), Y1, Y2
	VFMADD213PD e3<>(SB), Y1, Y2
	VFMADD213PD half<>(SB), Y1, Y2
	VFMADD213PD one<>(SB), Y1, Y2
	VMULPD   Y2, Y1, Y1
	VADDPD   two<>(SB), Y1, Y2
	VMULPD   Y2, Y1, Y1
	VADDPD   two<>(SB), Y1, Y2
	VMULPD   Y2, Y1, Y1
	VADDPD   two<>(SB), Y1, Y2
	VMULPD   Y2, Y1, Y1
	VADDPD   two<>(SB), Y1, Y2
	VFMADD213PD one<>(SB), Y2, Y1
	VPADDD   bias<>(SB), X3, X3
	VPXOR    X4, X4, X4
	VPCMPGTD X4, X3, X4
	VMOVDQU  emax<>(SB), X5
	VPCMPGTD X3, X5, X5
	VPAND    X5, X4, X4               // X4 = biased exponent in range
	VPMOVSXDQ X3, Y3
	VPSLLQ   $52, Y3, Y3
	VMULPD   Y3, Y1, Y1               // times 2^k
	VMOVUPD  Y1, (DI)(CX*8)
	VMOVMSKPS X4, R9
	XORQ     $15, R9                  // lanes to redraw
	SHLQ     CX, R9
	ORQ      R9, R8
	ADDQ     $4, CX
	CMPQ     CX, DX
	JLT      exps
	VZEROUPPER
	MOVQ R8, fallback+48(FP)
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (xcr0 uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, xcr0+0(FP)
	RET
