#include <stdint.h>
#include <stdlib.h>
#include <math.h>

/* NaN-propagating min/max matching np.minimum / np.maximum. */
static inline float rp_fmin32(float a, float b) {
    return (a != a) ? a : ((b != b) ? b : ((a < b) ? a : b));
}
static inline float rp_fmax32(float a, float b) {
    return (a != a) ? a : ((b != b) ? b : ((a > b) ? a : b));
}
static inline double rp_fmin64(double a, double b) {
    return (a != a) ? a : ((b != b) ? b : ((a < b) ? a : b));
}
static inline double rp_fmax64(double a, double b) {
    return (a != a) ? a : ((b != b) ? b : ((a > b) ? a : b));
}

int64_t rp_seg0(void **bufs, const int64_t *shapes, const int64_t *env, const int64_t *iparams, const double *fparams) {
    (void)bufs; (void)shapes; (void)env; (void)iparams; (void)fparams;
    uint8_t * restrict b0 = (uint8_t *)bufs[0];
    const int64_t b0_d0 = shapes[0];
    const int64_t b0_d1 = shapes[1];
    const int64_t b0_s1 = 1;
    const int64_t b0_s0 = b0_s1 * b0_d1;
    uint8_t * restrict b1 = (uint8_t *)bufs[1];
    const int64_t b1_d0 = shapes[2];
    const int64_t b1_d1 = shapes[3];
    const int64_t b1_s1 = 1;
    const int64_t b1_s0 = b1_s1 * b1_d1;
    {
        int64_t t1 = INT64_C(0);
        int64_t t2 = INT64_C(3);
        int64_t t3 = t1 + t2;
        for (int64_t v_by_tile_y = t1; v_by_tile_y < t3; ++v_by_tile_y) {
            {
                int64_t t4 = INT64_C(0);
                int64_t t5 = INT64_C(2);
                int64_t t6 = t4 + t5;
                for (int64_t v_by_tile_x = t4; v_by_tile_x < t6; ++v_by_tile_x) {
                    {
                        int64_t t7 = (int64_t)((uint64_t)v_by_tile_y * (uint64_t)INT64_C(32));
                        int64_t v_s1_oy = t7;
                        {
                            int64_t t8 = (int64_t)((uint64_t)v_by_tile_x * (uint64_t)INT64_C(64));
                            int64_t v_s1_ox = t8;
                            {
                                int64_t t9 = (int64_t)((uint64_t)INT64_C(96) - (uint64_t)v_s1_oy);
                                int64_t t10 = INT64_C(32);
                                int64_t t11 = t9;
                                int64_t t12 = (t10 < t11) ? t10 : t11;
                                int64_t v_s1_ey = t12;
                                {
                                    int64_t t13 = (int64_t)((uint64_t)INT64_C(128) - (uint64_t)v_s1_ox);
                                    int64_t t14 = INT64_C(64);
                                    int64_t t15 = t13;
                                    int64_t t16 = (t14 < t15) ? t14 : t15;
                                    int64_t v_s1_ex = t16;
                                    {
                                        int64_t t17 = (int64_t)((uint64_t)v_s1_oy + (uint64_t)INT64_C(-1));
                                        int64_t v_s0_ro0 = t17;
                                        {
                                            int64_t t18 = (int64_t)((uint64_t)v_s1_ey + (uint64_t)INT64_C(2));
                                            int64_t v_s0_re0 = t18;
                                            {
                                                int64_t t19 = v_s0_ro0;
                                                int64_t t20 = INT64_C(0);
                                                int64_t t21 = (t19 > t20) ? t19 : t20;
                                                int64_t t22 = t21;
                                                int64_t t23 = INT64_C(95);
                                                int64_t t24 = (t22 < t23) ? t22 : t23;
                                                int64_t v_s0_co0 = t24;
                                                {
                                                    int64_t t25 = (int64_t)((uint64_t)v_s0_ro0 + (uint64_t)v_s0_re0);
                                                    int64_t t26 = (int64_t)((uint64_t)t25 - (uint64_t)INT64_C(1));
                                                    int64_t t27 = t26;
                                                    int64_t t28 = INT64_C(0);
                                                    int64_t t29 = (t27 > t28) ? t27 : t28;
                                                    int64_t t30 = t29;
                                                    int64_t t31 = INT64_C(95);
                                                    int64_t t32 = (t30 < t31) ? t30 : t31;
                                                    int64_t v_s0_chi0 = t32;
                                                    {
                                                        int64_t t33 = (int64_t)((uint64_t)v_s0_chi0 - (uint64_t)v_s0_co0);
                                                        int64_t t34 = (int64_t)((uint64_t)t33 + (uint64_t)INT64_C(1));
                                                        int64_t v_s0_ce0 = t34;
                                                        {
                                                            int64_t t35 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                            int64_t v_s0_coff0 = t35;
                                                            {
                                                                int64_t t36 = v_s1_ox;
                                                                int64_t t37 = INT64_C(0);
                                                                int64_t t38 = (t36 > t37) ? t36 : t37;
                                                                int64_t t39 = t38;
                                                                int64_t t40 = INT64_C(127);
                                                                int64_t t41 = (t39 < t40) ? t39 : t40;
                                                                int64_t v_s0_co1 = t41;
                                                                {
                                                                    int64_t t42 = (int64_t)((uint64_t)v_s1_ox + (uint64_t)v_s1_ex);
                                                                    int64_t t43 = (int64_t)((uint64_t)t42 - (uint64_t)INT64_C(1));
                                                                    int64_t t44 = t43;
                                                                    int64_t t45 = INT64_C(0);
                                                                    int64_t t46 = (t44 > t45) ? t44 : t45;
                                                                    int64_t t47 = t46;
                                                                    int64_t t48 = INT64_C(127);
                                                                    int64_t t49 = (t47 < t48) ? t47 : t48;
                                                                    int64_t v_s0_chi1 = t49;
                                                                    {
                                                                        int64_t t50 = (int64_t)((uint64_t)v_s0_chi1 - (uint64_t)v_s0_co1);
                                                                        int64_t t51 = (int64_t)((uint64_t)t50 + (uint64_t)INT64_C(1));
                                                                        int64_t v_s0_ce1 = t51;
                                                                        {
                                                                            int64_t t52 = (int64_t)((uint64_t)v_s0_co1 - (uint64_t)v_s1_ox);
                                                                            int64_t v_s0_coff1 = t52;
                                                                            {
                                                                                int64_t t53 = (int64_t)((uint64_t)v_s0_co0 + (uint64_t)v_s0_ce0);
                                                                                int64_t t54 = (int64_t)((uint64_t)t53 - (uint64_t)INT64_C(1));
                                                                                int64_t v_s0_p_hi0 = t54;
                                                                                {
                                                                                    int64_t t55 = (int64_t)((uint64_t)v_s0_co1 + (uint64_t)v_s0_ce1);
                                                                                    int64_t t56 = (int64_t)((uint64_t)t55 - (uint64_t)INT64_C(1));
                                                                                    int64_t v_s0_p_hi1 = t56;
                                                                                    {
                                                                                        int64_t t57 = v_s0_co1;
                                                                                        int64_t t58 = INT64_C(1);
                                                                                        int64_t t59 = (t57 > t58) ? t57 : t58;
                                                                                        int64_t v_s0_p_ilo1 = t59;
                                                                                        {
                                                                                            int64_t t60 = v_s0_p_hi1;
                                                                                            int64_t t61 = INT64_C(126);
                                                                                            int64_t t62 = (t60 < t61) ? t60 : t61;
                                                                                            int64_t v_s0_p_ihi1 = t62;
                                                                                            { /* allocate bx.scratch#0 */
                                                                                                int64_t t63 = v_s0_re0;
                                                                                                int64_t t64 = v_s1_ex;
                                                                                                int64_t t65 = t63 * t64;
                                                                                                uint8_t * restrict a_bx_scratch_0 = (uint8_t *)malloc((size_t)t65 * sizeof(uint8_t));
                                                                                                if (!a_bx_scratch_0) { return 3; }
                                                                                                int64_t t66 = 1;
                                                                                                int64_t t67 = t66 * t64;
                                                                                                /* produce bx */
                                                                                                int64_t t68 = (int64_t)((uint64_t)v_s0_co1 + (uint64_t)INT64_C(-1));
                                                                                                int64_t t69 = (int64_t)(t68 >= INT64_C(0));
                                                                                                int64_t t70 = (int64_t)((uint64_t)v_s0_co1 + (uint64_t)v_s0_ce1);
                                                                                                int64_t t71 = (int64_t)((uint64_t)t70 + (uint64_t)INT64_C(1));
                                                                                                int64_t t72 = (int64_t)(t71 <= INT64_C(128));
                                                                                                int64_t t73 = (t69) & (t72);
                                                                                                int64_t t74 = t73;
                                                                                                if (t74 != 0) {
                                                                                                    { /* store interior-whole */
                                                                                                        int64_t t75 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                                                                        int64_t t76 = t75;
                                                                                                        int64_t t77 = (int64_t)((uint64_t)v_s0_co1 - (uint64_t)v_s1_ox);
                                                                                                        int64_t t78 = t77;
                                                                                                        int64_t t79 = v_s0_ce0;
                                                                                                        int64_t t80 = v_s0_ce1;
                                                                                                        int64_t t81 = v_s0_co0;
                                                                                                        int64_t t82 = v_s0_co1;
                                                                                                        if (t79 > 0 && t80 > 0) {
                                                                                                            if ((t82 + INT64_C(-1)) < -b0_d1 || ((t82 + t80 - 1) + INT64_C(-1)) >= b0_d1) { return 4; }
                                                                                                            if (t81 < -b0_d0 || (t81 + t79 - 1) >= b0_d0) { return 4; }
                                                                                                            if ((t82 + INT64_C(1)) < -b0_d1 || ((t82 + t80 - 1) + INT64_C(1)) >= b0_d1) { return 4; }
                                                                                                            if (t82 < -b0_d1 || (t82 + t80 - 1) >= b0_d1) { return 4; }
                                                                                                            if ((t82 + INT64_C(-1)) >= 0 && t81 >= 0 && (t82 + INT64_C(1)) >= 0 && t82 >= 0) {
                                                                                                                int64_t t83 = t64 == t80 && b0_d1 == t80;
                                                                                                                int64_t t84 = t83 ? INT64_C(1) : t79;
                                                                                                                int64_t t85 = t83 ? t79 * t80 : t80;
                                                                                                                for (int64_t i0 = 0; i0 < t84; ++i0) {
                                                                                                                    #pragma omp simd
                                                                                                                    for (int64_t i1 = 0; i1 < t85; ++i1) {
                                                                                                                        int64_t t86 = t81 + i0;
                                                                                                                        int64_t t87 = t82 + i1;
                                                                                                                        int64_t t88 = (int64_t)((uint64_t)t87 + (uint64_t)INT64_C(-1));
                                                                                                                        int64_t t89 = t88;
                                                                                                                        int64_t t90 = t86;
                                                                                                                        int64_t t91 = t89 * b0_s1 + t90 * b0_s0;
                                                                                                                        uint8_t t92 = b0[t91];
                                                                                                                        int64_t t93 = (int64_t)t92;
                                                                                                                        int64_t t94 = (int64_t)(uint32_t)(t93);
                                                                                                                        int64_t t95 = (int64_t)((uint64_t)t87 + (uint64_t)INT64_C(1));
                                                                                                                        int64_t t96 = t95;
                                                                                                                        int64_t t97 = t86;
                                                                                                                        int64_t t98 = t96 * b0_s1 + t97 * b0_s0;
                                                                                                                        uint8_t t99 = b0[t98];
                                                                                                                        int64_t t100 = (int64_t)t99;
                                                                                                                        int64_t t101 = (int64_t)(uint32_t)(t100);
                                                                                                                        int64_t t102 = (int64_t)((uint64_t)t94 + (uint64_t)t101);
                                                                                                                        int64_t t103 = t87;
                                                                                                                        int64_t t104 = t86;
                                                                                                                        int64_t t105 = t103 * b0_s1 + t104 * b0_s0;
                                                                                                                        uint8_t t106 = b0[t105];
                                                                                                                        int64_t t107 = (int64_t)t106;
                                                                                                                        int64_t t108 = (int64_t)(uint32_t)(t107);
                                                                                                                        int64_t t109 = (int64_t)((uint64_t)t102 + (uint64_t)t108);
                                                                                                                        int64_t t110 = (t109) >> ((INT64_C(1)) & 63);
                                                                                                                        int64_t t111 = (int64_t)(uint8_t)(t110);
                                                                                                                        int64_t t112 = (int64_t)(uint8_t)(t111);
                                                                                                                        int64_t t113 = (t76 + i0) * t67 + (t78 + i1) * t66;
                                                                                                                        a_bx_scratch_0[t113] = (uint8_t)(t112);
                                                                                                                    }
                                                                                                                }
                                                                                                            } else {
                                                                                                                for (int64_t i0_114 = 0; i0_114 < t79; ++i0_114) {
                                                                                                                    #pragma omp simd
                                                                                                                    for (int64_t i1_115 = 0; i1_115 < t80; ++i1_115) {
                                                                                                                        int64_t t116 = t81 + i0_114;
                                                                                                                        int64_t t117 = t82 + i1_115;
                                                                                                                        int64_t t118 = (int64_t)((uint64_t)t117 + (uint64_t)INT64_C(-1));
                                                                                                                        int64_t t119 = t118;
                                                                                                                        int64_t t120 = t119 + ((t119 >> 63) & b0_d1);
                                                                                                                        int64_t t121 = t116;
                                                                                                                        int64_t t122 = t121 + ((t121 >> 63) & b0_d0);
                                                                                                                        int64_t t123 = t120 * b0_s1 + t122 * b0_s0;
                                                                                                                        uint8_t t124 = b0[t123];
                                                                                                                        int64_t t125 = (int64_t)t124;
                                                                                                                        int64_t t126 = (int64_t)(uint32_t)(t125);
                                                                                                                        int64_t t127 = (int64_t)((uint64_t)t117 + (uint64_t)INT64_C(1));
                                                                                                                        int64_t t128 = t127;
                                                                                                                        int64_t t129 = t128 + ((t128 >> 63) & b0_d1);
                                                                                                                        int64_t t130 = t116;
                                                                                                                        int64_t t131 = t130 + ((t130 >> 63) & b0_d0);
                                                                                                                        int64_t t132 = t129 * b0_s1 + t131 * b0_s0;
                                                                                                                        uint8_t t133 = b0[t132];
                                                                                                                        int64_t t134 = (int64_t)t133;
                                                                                                                        int64_t t135 = (int64_t)(uint32_t)(t134);
                                                                                                                        int64_t t136 = (int64_t)((uint64_t)t126 + (uint64_t)t135);
                                                                                                                        int64_t t137 = t117;
                                                                                                                        int64_t t138 = t137 + ((t137 >> 63) & b0_d1);
                                                                                                                        int64_t t139 = t116;
                                                                                                                        int64_t t140 = t139 + ((t139 >> 63) & b0_d0);
                                                                                                                        int64_t t141 = t138 * b0_s1 + t140 * b0_s0;
                                                                                                                        uint8_t t142 = b0[t141];
                                                                                                                        int64_t t143 = (int64_t)t142;
                                                                                                                        int64_t t144 = (int64_t)(uint32_t)(t143);
                                                                                                                        int64_t t145 = (int64_t)((uint64_t)t136 + (uint64_t)t144);
                                                                                                                        int64_t t146 = (t145) >> ((INT64_C(1)) & 63);
                                                                                                                        int64_t t147 = (int64_t)(uint8_t)(t146);
                                                                                                                        int64_t t148 = (int64_t)(uint8_t)(t147);
                                                                                                                        int64_t t149 = (t76 + i0_114) * t67 + (t78 + i1_115) * t66;
                                                                                                                        a_bx_scratch_0[t149] = (uint8_t)(t148);
                                                                                                                    }
                                                                                                                }
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                } else {
                                                                                                    { /* store border-lo1 */
                                                                                                        int64_t t150 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                                                                        int64_t t151 = t150;
                                                                                                        int64_t t152 = (int64_t)((uint64_t)v_s0_co1 - (uint64_t)v_s1_ox);
                                                                                                        int64_t t153 = t152;
                                                                                                        int64_t t154 = (int64_t)((uint64_t)v_s0_p_hi0 - (uint64_t)v_s0_co0);
                                                                                                        int64_t t155 = (int64_t)((uint64_t)t154 + (uint64_t)INT64_C(1));
                                                                                                        int64_t t156 = t155;
                                                                                                        int64_t t157 = (int64_t)((uint64_t)v_s0_p_ilo1 - (uint64_t)v_s0_co1);
                                                                                                        int64_t t158 = t157;
                                                                                                        int64_t t159 = v_s0_co0;
                                                                                                        int64_t t160 = v_s0_co1;
                                                                                                        if (t156 > 0 && t158 > 0) {
                                                                                                            if (((INT64_C(127)) < (((INT64_C(0)) > ((t160 + INT64_C(-1))) ? (INT64_C(0)) : ((t160 + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t160 + INT64_C(-1))) ? (INT64_C(0)) : ((t160 + INT64_C(-1)))))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > (((t160 + t158 - 1) + INT64_C(-1))) ? (INT64_C(0)) : (((t160 + t158 - 1) + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > (((t160 + t158 - 1) + INT64_C(-1))) ? (INT64_C(0)) : (((t160 + t158 - 1) + INT64_C(-1)))))) >= b0_d1) { return 4; }
                                                                                                            if (((INT64_C(95)) < (((INT64_C(0)) > (t159) ? (INT64_C(0)) : (t159))) ? (INT64_C(95)) : (((INT64_C(0)) > (t159) ? (INT64_C(0)) : (t159)))) < -b0_d0 || ((INT64_C(95)) < (((INT64_C(0)) > ((t159 + t156 - 1)) ? (INT64_C(0)) : ((t159 + t156 - 1)))) ? (INT64_C(95)) : (((INT64_C(0)) > ((t159 + t156 - 1)) ? (INT64_C(0)) : ((t159 + t156 - 1))))) >= b0_d0) { return 4; }
                                                                                                            if (((INT64_C(127)) < (((INT64_C(0)) > ((t160 + INT64_C(1))) ? (INT64_C(0)) : ((t160 + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t160 + INT64_C(1))) ? (INT64_C(0)) : ((t160 + INT64_C(1)))))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > (((t160 + t158 - 1) + INT64_C(1))) ? (INT64_C(0)) : (((t160 + t158 - 1) + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > (((t160 + t158 - 1) + INT64_C(1))) ? (INT64_C(0)) : (((t160 + t158 - 1) + INT64_C(1)))))) >= b0_d1) { return 4; }
                                                                                                            if (((INT64_C(127)) < (((INT64_C(0)) > (t160) ? (INT64_C(0)) : (t160))) ? (INT64_C(127)) : (((INT64_C(0)) > (t160) ? (INT64_C(0)) : (t160)))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > ((t160 + t158 - 1)) ? (INT64_C(0)) : ((t160 + t158 - 1)))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t160 + t158 - 1)) ? (INT64_C(0)) : ((t160 + t158 - 1))))) >= b0_d1) { return 4; }
                                                                                                            if (((INT64_C(127)) < (((INT64_C(0)) > ((t160 + INT64_C(-1))) ? (INT64_C(0)) : ((t160 + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t160 + INT64_C(-1))) ? (INT64_C(0)) : ((t160 + INT64_C(-1)))))) >= 0 && ((INT64_C(95)) < (((INT64_C(0)) > (t159) ? (INT64_C(0)) : (t159))) ? (INT64_C(95)) : (((INT64_C(0)) > (t159) ? (INT64_C(0)) : (t159)))) >= 0 && ((INT64_C(127)) < (((INT64_C(0)) > ((t160 + INT64_C(1))) ? (INT64_C(0)) : ((t160 + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t160 + INT64_C(1))) ? (INT64_C(0)) : ((t160 + INT64_C(1)))))) >= 0 && ((INT64_C(127)) < (((INT64_C(0)) > (t160) ? (INT64_C(0)) : (t160))) ? (INT64_C(127)) : (((INT64_C(0)) > (t160) ? (INT64_C(0)) : (t160)))) >= 0) {
                                                                                                                for (int64_t i0_161 = 0; i0_161 < t156; ++i0_161) {
                                                                                                                    #pragma omp simd
                                                                                                                    for (int64_t i1_162 = 0; i1_162 < t158; ++i1_162) {
                                                                                                                        int64_t t163 = t159 + i0_161;
                                                                                                                        int64_t t164 = t160 + i1_162;
                                                                                                                        int64_t t165 = (int64_t)((uint64_t)t164 + (uint64_t)INT64_C(-1));
                                                                                                                        int64_t t166 = INT64_C(0);
                                                                                                                        int64_t t167 = t165;
                                                                                                                        int64_t t168 = (t166 > t167) ? t166 : t167;
                                                                                                                        int64_t t169 = INT64_C(127);
                                                                                                                        int64_t t170 = t168;
                                                                                                                        int64_t t171 = (t169 < t170) ? t169 : t170;
                                                                                                                        int64_t t172 = t171;
                                                                                                                        int64_t t173 = INT64_C(0);
                                                                                                                        int64_t t174 = t163;
                                                                                                                        int64_t t175 = (t173 > t174) ? t173 : t174;
                                                                                                                        int64_t t176 = INT64_C(95);
                                                                                                                        int64_t t177 = t175;
                                                                                                                        int64_t t178 = (t176 < t177) ? t176 : t177;
                                                                                                                        int64_t t179 = t178;
                                                                                                                        int64_t t180 = t172 * b0_s1 + t179 * b0_s0;
                                                                                                                        uint8_t t181 = b0[t180];
                                                                                                                        int64_t t182 = (int64_t)t181;
                                                                                                                        int64_t t183 = (int64_t)(uint32_t)(t182);
                                                                                                                        int64_t t184 = (int64_t)((uint64_t)t164 + (uint64_t)INT64_C(1));
                                                                                                                        int64_t t185 = INT64_C(0);
                                                                                                                        int64_t t186 = t184;
                                                                                                                        int64_t t187 = (t185 > t186) ? t185 : t186;
                                                                                                                        int64_t t188 = INT64_C(127);
                                                                                                                        int64_t t189 = t187;
                                                                                                                        int64_t t190 = (t188 < t189) ? t188 : t189;
                                                                                                                        int64_t t191 = t190;
                                                                                                                        int64_t t192 = INT64_C(0);
                                                                                                                        int64_t t193 = t163;
                                                                                                                        int64_t t194 = (t192 > t193) ? t192 : t193;
                                                                                                                        int64_t t195 = INT64_C(95);
                                                                                                                        int64_t t196 = t194;
                                                                                                                        int64_t t197 = (t195 < t196) ? t195 : t196;
                                                                                                                        int64_t t198 = t197;
                                                                                                                        int64_t t199 = t191 * b0_s1 + t198 * b0_s0;
                                                                                                                        uint8_t t200 = b0[t199];
                                                                                                                        int64_t t201 = (int64_t)t200;
                                                                                                                        int64_t t202 = (int64_t)(uint32_t)(t201);
                                                                                                                        int64_t t203 = (int64_t)((uint64_t)t183 + (uint64_t)t202);
                                                                                                                        int64_t t204 = INT64_C(0);
                                                                                                                        int64_t t205 = t164;
                                                                                                                        int64_t t206 = (t204 > t205) ? t204 : t205;
                                                                                                                        int64_t t207 = INT64_C(127);
                                                                                                                        int64_t t208 = t206;
                                                                                                                        int64_t t209 = (t207 < t208) ? t207 : t208;
                                                                                                                        int64_t t210 = t209;
                                                                                                                        int64_t t211 = INT64_C(0);
                                                                                                                        int64_t t212 = t163;
                                                                                                                        int64_t t213 = (t211 > t212) ? t211 : t212;
                                                                                                                        int64_t t214 = INT64_C(95);
                                                                                                                        int64_t t215 = t213;
                                                                                                                        int64_t t216 = (t214 < t215) ? t214 : t215;
                                                                                                                        int64_t t217 = t216;
                                                                                                                        int64_t t218 = t210 * b0_s1 + t217 * b0_s0;
                                                                                                                        uint8_t t219 = b0[t218];
                                                                                                                        int64_t t220 = (int64_t)t219;
                                                                                                                        int64_t t221 = (int64_t)(uint32_t)(t220);
                                                                                                                        int64_t t222 = (int64_t)((uint64_t)t203 + (uint64_t)t221);
                                                                                                                        int64_t t223 = (t222) >> ((INT64_C(1)) & 63);
                                                                                                                        int64_t t224 = (int64_t)(uint8_t)(t223);
                                                                                                                        int64_t t225 = (int64_t)(uint8_t)(t224);
                                                                                                                        int64_t t226 = (t151 + i0_161) * t67 + (t153 + i1_162) * t66;
                                                                                                                        a_bx_scratch_0[t226] = (uint8_t)(t225);
                                                                                                                    }
                                                                                                                }
                                                                                                            } else {
                                                                                                                for (int64_t i0_227 = 0; i0_227 < t156; ++i0_227) {
                                                                                                                    #pragma omp simd
                                                                                                                    for (int64_t i1_228 = 0; i1_228 < t158; ++i1_228) {
                                                                                                                        int64_t t229 = t159 + i0_227;
                                                                                                                        int64_t t230 = t160 + i1_228;
                                                                                                                        int64_t t231 = (int64_t)((uint64_t)t230 + (uint64_t)INT64_C(-1));
                                                                                                                        int64_t t232 = INT64_C(0);
                                                                                                                        int64_t t233 = t231;
                                                                                                                        int64_t t234 = (t232 > t233) ? t232 : t233;
                                                                                                                        int64_t t235 = INT64_C(127);
                                                                                                                        int64_t t236 = t234;
                                                                                                                        int64_t t237 = (t235 < t236) ? t235 : t236;
                                                                                                                        int64_t t238 = t237;
                                                                                                                        int64_t t239 = t238 + ((t238 >> 63) & b0_d1);
                                                                                                                        int64_t t240 = INT64_C(0);
                                                                                                                        int64_t t241 = t229;
                                                                                                                        int64_t t242 = (t240 > t241) ? t240 : t241;
                                                                                                                        int64_t t243 = INT64_C(95);
                                                                                                                        int64_t t244 = t242;
                                                                                                                        int64_t t245 = (t243 < t244) ? t243 : t244;
                                                                                                                        int64_t t246 = t245;
                                                                                                                        int64_t t247 = t246 + ((t246 >> 63) & b0_d0);
                                                                                                                        int64_t t248 = t239 * b0_s1 + t247 * b0_s0;
                                                                                                                        uint8_t t249 = b0[t248];
                                                                                                                        int64_t t250 = (int64_t)t249;
                                                                                                                        int64_t t251 = (int64_t)(uint32_t)(t250);
                                                                                                                        int64_t t252 = (int64_t)((uint64_t)t230 + (uint64_t)INT64_C(1));
                                                                                                                        int64_t t253 = INT64_C(0);
                                                                                                                        int64_t t254 = t252;
                                                                                                                        int64_t t255 = (t253 > t254) ? t253 : t254;
                                                                                                                        int64_t t256 = INT64_C(127);
                                                                                                                        int64_t t257 = t255;
                                                                                                                        int64_t t258 = (t256 < t257) ? t256 : t257;
                                                                                                                        int64_t t259 = t258;
                                                                                                                        int64_t t260 = t259 + ((t259 >> 63) & b0_d1);
                                                                                                                        int64_t t261 = INT64_C(0);
                                                                                                                        int64_t t262 = t229;
                                                                                                                        int64_t t263 = (t261 > t262) ? t261 : t262;
                                                                                                                        int64_t t264 = INT64_C(95);
                                                                                                                        int64_t t265 = t263;
                                                                                                                        int64_t t266 = (t264 < t265) ? t264 : t265;
                                                                                                                        int64_t t267 = t266;
                                                                                                                        int64_t t268 = t267 + ((t267 >> 63) & b0_d0);
                                                                                                                        int64_t t269 = t260 * b0_s1 + t268 * b0_s0;
                                                                                                                        uint8_t t270 = b0[t269];
                                                                                                                        int64_t t271 = (int64_t)t270;
                                                                                                                        int64_t t272 = (int64_t)(uint32_t)(t271);
                                                                                                                        int64_t t273 = (int64_t)((uint64_t)t251 + (uint64_t)t272);
                                                                                                                        int64_t t274 = INT64_C(0);
                                                                                                                        int64_t t275 = t230;
                                                                                                                        int64_t t276 = (t274 > t275) ? t274 : t275;
                                                                                                                        int64_t t277 = INT64_C(127);
                                                                                                                        int64_t t278 = t276;
                                                                                                                        int64_t t279 = (t277 < t278) ? t277 : t278;
                                                                                                                        int64_t t280 = t279;
                                                                                                                        int64_t t281 = t280 + ((t280 >> 63) & b0_d1);
                                                                                                                        int64_t t282 = INT64_C(0);
                                                                                                                        int64_t t283 = t229;
                                                                                                                        int64_t t284 = (t282 > t283) ? t282 : t283;
                                                                                                                        int64_t t285 = INT64_C(95);
                                                                                                                        int64_t t286 = t284;
                                                                                                                        int64_t t287 = (t285 < t286) ? t285 : t286;
                                                                                                                        int64_t t288 = t287;
                                                                                                                        int64_t t289 = t288 + ((t288 >> 63) & b0_d0);
                                                                                                                        int64_t t290 = t281 * b0_s1 + t289 * b0_s0;
                                                                                                                        uint8_t t291 = b0[t290];
                                                                                                                        int64_t t292 = (int64_t)t291;
                                                                                                                        int64_t t293 = (int64_t)(uint32_t)(t292);
                                                                                                                        int64_t t294 = (int64_t)((uint64_t)t273 + (uint64_t)t293);
                                                                                                                        int64_t t295 = (t294) >> ((INT64_C(1)) & 63);
                                                                                                                        int64_t t296 = (int64_t)(uint8_t)(t295);
                                                                                                                        int64_t t297 = (int64_t)(uint8_t)(t296);
                                                                                                                        int64_t t298 = (t151 + i0_227) * t67 + (t153 + i1_228) * t66;
                                                                                                                        a_bx_scratch_0[t298] = (uint8_t)(t297);
                                                                                                                    }
                                                                                                                }
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                    { /* store border-hi1 */
                                                                                                        int64_t t299 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                                                                        int64_t t300 = t299;
                                                                                                        int64_t t301 = (int64_t)((uint64_t)v_s0_p_ihi1 + (uint64_t)INT64_C(1));
                                                                                                        int64_t t302 = (int64_t)((uint64_t)t301 - (uint64_t)v_s1_ox);
                                                                                                        int64_t t303 = t302;
                                                                                                        int64_t t304 = (int64_t)((uint64_t)v_s0_p_hi0 - (uint64_t)v_s0_co0);
                                                                                                        int64_t t305 = (int64_t)((uint64_t)t304 + (uint64_t)INT64_C(1));
                                                                                                        int64_t t306 = t305;
                                                                                                        int64_t t307 = (int64_t)((uint64_t)v_s0_p_hi1 - (uint64_t)v_s0_p_ihi1);
                                                                                                        int64_t t308 = t307;
                                                                                                        int64_t t309 = v_s0_co0;
                                                                                                        int64_t t310 = (int64_t)((uint64_t)v_s0_p_ihi1 + (uint64_t)INT64_C(1));
                                                                                                        int64_t t311 = t310;
                                                                                                        if (t306 > 0 && t308 > 0) {
                                                                                                            if (((INT64_C(127)) < (((INT64_C(0)) > ((t311 + INT64_C(-1))) ? (INT64_C(0)) : ((t311 + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t311 + INT64_C(-1))) ? (INT64_C(0)) : ((t311 + INT64_C(-1)))))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > (((t311 + t308 - 1) + INT64_C(-1))) ? (INT64_C(0)) : (((t311 + t308 - 1) + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > (((t311 + t308 - 1) + INT64_C(-1))) ? (INT64_C(0)) : (((t311 + t308 - 1) + INT64_C(-1)))))) >= b0_d1) { return 4; }
                                                                                                            if (((INT64_C(95)) < (((INT64_C(0)) > (t309) ? (INT64_C(0)) : (t309))) ? (INT64_C(95)) : (((INT64_C(0)) > (t309) ? (INT64_C(0)) : (t309)))) < -b0_d0 || ((INT64_C(95)) < (((INT64_C(0)) > ((t309 + t306 - 1)) ? (INT64_C(0)) : ((t309 + t306 - 1)))) ? (INT64_C(95)) : (((INT64_C(0)) > ((t309 + t306 - 1)) ? (INT64_C(0)) : ((t309 + t306 - 1))))) >= b0_d0) { return 4; }
                                                                                                            if (((INT64_C(127)) < (((INT64_C(0)) > ((t311 + INT64_C(1))) ? (INT64_C(0)) : ((t311 + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t311 + INT64_C(1))) ? (INT64_C(0)) : ((t311 + INT64_C(1)))))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > (((t311 + t308 - 1) + INT64_C(1))) ? (INT64_C(0)) : (((t311 + t308 - 1) + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > (((t311 + t308 - 1) + INT64_C(1))) ? (INT64_C(0)) : (((t311 + t308 - 1) + INT64_C(1)))))) >= b0_d1) { return 4; }
                                                                                                            if (((INT64_C(127)) < (((INT64_C(0)) > (t311) ? (INT64_C(0)) : (t311))) ? (INT64_C(127)) : (((INT64_C(0)) > (t311) ? (INT64_C(0)) : (t311)))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > ((t311 + t308 - 1)) ? (INT64_C(0)) : ((t311 + t308 - 1)))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t311 + t308 - 1)) ? (INT64_C(0)) : ((t311 + t308 - 1))))) >= b0_d1) { return 4; }
                                                                                                            if (((INT64_C(127)) < (((INT64_C(0)) > ((t311 + INT64_C(-1))) ? (INT64_C(0)) : ((t311 + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t311 + INT64_C(-1))) ? (INT64_C(0)) : ((t311 + INT64_C(-1)))))) >= 0 && ((INT64_C(95)) < (((INT64_C(0)) > (t309) ? (INT64_C(0)) : (t309))) ? (INT64_C(95)) : (((INT64_C(0)) > (t309) ? (INT64_C(0)) : (t309)))) >= 0 && ((INT64_C(127)) < (((INT64_C(0)) > ((t311 + INT64_C(1))) ? (INT64_C(0)) : ((t311 + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t311 + INT64_C(1))) ? (INT64_C(0)) : ((t311 + INT64_C(1)))))) >= 0 && ((INT64_C(127)) < (((INT64_C(0)) > (t311) ? (INT64_C(0)) : (t311))) ? (INT64_C(127)) : (((INT64_C(0)) > (t311) ? (INT64_C(0)) : (t311)))) >= 0) {
                                                                                                                for (int64_t i0_312 = 0; i0_312 < t306; ++i0_312) {
                                                                                                                    #pragma omp simd
                                                                                                                    for (int64_t i1_313 = 0; i1_313 < t308; ++i1_313) {
                                                                                                                        int64_t t314 = t309 + i0_312;
                                                                                                                        int64_t t315 = t311 + i1_313;
                                                                                                                        int64_t t316 = (int64_t)((uint64_t)t315 + (uint64_t)INT64_C(-1));
                                                                                                                        int64_t t317 = INT64_C(0);
                                                                                                                        int64_t t318 = t316;
                                                                                                                        int64_t t319 = (t317 > t318) ? t317 : t318;
                                                                                                                        int64_t t320 = INT64_C(127);
                                                                                                                        int64_t t321 = t319;
                                                                                                                        int64_t t322 = (t320 < t321) ? t320 : t321;
                                                                                                                        int64_t t323 = t322;
                                                                                                                        int64_t t324 = INT64_C(0);
                                                                                                                        int64_t t325 = t314;
                                                                                                                        int64_t t326 = (t324 > t325) ? t324 : t325;
                                                                                                                        int64_t t327 = INT64_C(95);
                                                                                                                        int64_t t328 = t326;
                                                                                                                        int64_t t329 = (t327 < t328) ? t327 : t328;
                                                                                                                        int64_t t330 = t329;
                                                                                                                        int64_t t331 = t323 * b0_s1 + t330 * b0_s0;
                                                                                                                        uint8_t t332 = b0[t331];
                                                                                                                        int64_t t333 = (int64_t)t332;
                                                                                                                        int64_t t334 = (int64_t)(uint32_t)(t333);
                                                                                                                        int64_t t335 = (int64_t)((uint64_t)t315 + (uint64_t)INT64_C(1));
                                                                                                                        int64_t t336 = INT64_C(0);
                                                                                                                        int64_t t337 = t335;
                                                                                                                        int64_t t338 = (t336 > t337) ? t336 : t337;
                                                                                                                        int64_t t339 = INT64_C(127);
                                                                                                                        int64_t t340 = t338;
                                                                                                                        int64_t t341 = (t339 < t340) ? t339 : t340;
                                                                                                                        int64_t t342 = t341;
                                                                                                                        int64_t t343 = INT64_C(0);
                                                                                                                        int64_t t344 = t314;
                                                                                                                        int64_t t345 = (t343 > t344) ? t343 : t344;
                                                                                                                        int64_t t346 = INT64_C(95);
                                                                                                                        int64_t t347 = t345;
                                                                                                                        int64_t t348 = (t346 < t347) ? t346 : t347;
                                                                                                                        int64_t t349 = t348;
                                                                                                                        int64_t t350 = t342 * b0_s1 + t349 * b0_s0;
                                                                                                                        uint8_t t351 = b0[t350];
                                                                                                                        int64_t t352 = (int64_t)t351;
                                                                                                                        int64_t t353 = (int64_t)(uint32_t)(t352);
                                                                                                                        int64_t t354 = (int64_t)((uint64_t)t334 + (uint64_t)t353);
                                                                                                                        int64_t t355 = INT64_C(0);
                                                                                                                        int64_t t356 = t315;
                                                                                                                        int64_t t357 = (t355 > t356) ? t355 : t356;
                                                                                                                        int64_t t358 = INT64_C(127);
                                                                                                                        int64_t t359 = t357;
                                                                                                                        int64_t t360 = (t358 < t359) ? t358 : t359;
                                                                                                                        int64_t t361 = t360;
                                                                                                                        int64_t t362 = INT64_C(0);
                                                                                                                        int64_t t363 = t314;
                                                                                                                        int64_t t364 = (t362 > t363) ? t362 : t363;
                                                                                                                        int64_t t365 = INT64_C(95);
                                                                                                                        int64_t t366 = t364;
                                                                                                                        int64_t t367 = (t365 < t366) ? t365 : t366;
                                                                                                                        int64_t t368 = t367;
                                                                                                                        int64_t t369 = t361 * b0_s1 + t368 * b0_s0;
                                                                                                                        uint8_t t370 = b0[t369];
                                                                                                                        int64_t t371 = (int64_t)t370;
                                                                                                                        int64_t t372 = (int64_t)(uint32_t)(t371);
                                                                                                                        int64_t t373 = (int64_t)((uint64_t)t354 + (uint64_t)t372);
                                                                                                                        int64_t t374 = (t373) >> ((INT64_C(1)) & 63);
                                                                                                                        int64_t t375 = (int64_t)(uint8_t)(t374);
                                                                                                                        int64_t t376 = (int64_t)(uint8_t)(t375);
                                                                                                                        int64_t t377 = (t300 + i0_312) * t67 + (t303 + i1_313) * t66;
                                                                                                                        a_bx_scratch_0[t377] = (uint8_t)(t376);
                                                                                                                    }
                                                                                                                }
                                                                                                            } else {
                                                                                                                for (int64_t i0_378 = 0; i0_378 < t306; ++i0_378) {
                                                                                                                    #pragma omp simd
                                                                                                                    for (int64_t i1_379 = 0; i1_379 < t308; ++i1_379) {
                                                                                                                        int64_t t380 = t309 + i0_378;
                                                                                                                        int64_t t381 = t311 + i1_379;
                                                                                                                        int64_t t382 = (int64_t)((uint64_t)t381 + (uint64_t)INT64_C(-1));
                                                                                                                        int64_t t383 = INT64_C(0);
                                                                                                                        int64_t t384 = t382;
                                                                                                                        int64_t t385 = (t383 > t384) ? t383 : t384;
                                                                                                                        int64_t t386 = INT64_C(127);
                                                                                                                        int64_t t387 = t385;
                                                                                                                        int64_t t388 = (t386 < t387) ? t386 : t387;
                                                                                                                        int64_t t389 = t388;
                                                                                                                        int64_t t390 = t389 + ((t389 >> 63) & b0_d1);
                                                                                                                        int64_t t391 = INT64_C(0);
                                                                                                                        int64_t t392 = t380;
                                                                                                                        int64_t t393 = (t391 > t392) ? t391 : t392;
                                                                                                                        int64_t t394 = INT64_C(95);
                                                                                                                        int64_t t395 = t393;
                                                                                                                        int64_t t396 = (t394 < t395) ? t394 : t395;
                                                                                                                        int64_t t397 = t396;
                                                                                                                        int64_t t398 = t397 + ((t397 >> 63) & b0_d0);
                                                                                                                        int64_t t399 = t390 * b0_s1 + t398 * b0_s0;
                                                                                                                        uint8_t t400 = b0[t399];
                                                                                                                        int64_t t401 = (int64_t)t400;
                                                                                                                        int64_t t402 = (int64_t)(uint32_t)(t401);
                                                                                                                        int64_t t403 = (int64_t)((uint64_t)t381 + (uint64_t)INT64_C(1));
                                                                                                                        int64_t t404 = INT64_C(0);
                                                                                                                        int64_t t405 = t403;
                                                                                                                        int64_t t406 = (t404 > t405) ? t404 : t405;
                                                                                                                        int64_t t407 = INT64_C(127);
                                                                                                                        int64_t t408 = t406;
                                                                                                                        int64_t t409 = (t407 < t408) ? t407 : t408;
                                                                                                                        int64_t t410 = t409;
                                                                                                                        int64_t t411 = t410 + ((t410 >> 63) & b0_d1);
                                                                                                                        int64_t t412 = INT64_C(0);
                                                                                                                        int64_t t413 = t380;
                                                                                                                        int64_t t414 = (t412 > t413) ? t412 : t413;
                                                                                                                        int64_t t415 = INT64_C(95);
                                                                                                                        int64_t t416 = t414;
                                                                                                                        int64_t t417 = (t415 < t416) ? t415 : t416;
                                                                                                                        int64_t t418 = t417;
                                                                                                                        int64_t t419 = t418 + ((t418 >> 63) & b0_d0);
                                                                                                                        int64_t t420 = t411 * b0_s1 + t419 * b0_s0;
                                                                                                                        uint8_t t421 = b0[t420];
                                                                                                                        int64_t t422 = (int64_t)t421;
                                                                                                                        int64_t t423 = (int64_t)(uint32_t)(t422);
                                                                                                                        int64_t t424 = (int64_t)((uint64_t)t402 + (uint64_t)t423);
                                                                                                                        int64_t t425 = INT64_C(0);
                                                                                                                        int64_t t426 = t381;
                                                                                                                        int64_t t427 = (t425 > t426) ? t425 : t426;
                                                                                                                        int64_t t428 = INT64_C(127);
                                                                                                                        int64_t t429 = t427;
                                                                                                                        int64_t t430 = (t428 < t429) ? t428 : t429;
                                                                                                                        int64_t t431 = t430;
                                                                                                                        int64_t t432 = t431 + ((t431 >> 63) & b0_d1);
                                                                                                                        int64_t t433 = INT64_C(0);
                                                                                                                        int64_t t434 = t380;
                                                                                                                        int64_t t435 = (t433 > t434) ? t433 : t434;
                                                                                                                        int64_t t436 = INT64_C(95);
                                                                                                                        int64_t t437 = t435;
                                                                                                                        int64_t t438 = (t436 < t437) ? t436 : t437;
                                                                                                                        int64_t t439 = t438;
                                                                                                                        int64_t t440 = t439 + ((t439 >> 63) & b0_d0);
                                                                                                                        int64_t t441 = t432 * b0_s1 + t440 * b0_s0;
                                                                                                                        uint8_t t442 = b0[t441];
                                                                                                                        int64_t t443 = (int64_t)t442;
                                                                                                                        int64_t t444 = (int64_t)(uint32_t)(t443);
                                                                                                                        int64_t t445 = (int64_t)((uint64_t)t424 + (uint64_t)t444);
                                                                                                                        int64_t t446 = (t445) >> ((INT64_C(1)) & 63);
                                                                                                                        int64_t t447 = (int64_t)(uint8_t)(t446);
                                                                                                                        int64_t t448 = (int64_t)(uint8_t)(t447);
                                                                                                                        int64_t t449 = (t300 + i0_378) * t67 + (t303 + i1_379) * t66;
                                                                                                                        a_bx_scratch_0[t449] = (uint8_t)(t448);
                                                                                                                    }
                                                                                                                }
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                    { /* store interior */
                                                                                                        int64_t t450 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                                                                        int64_t t451 = t450;
                                                                                                        int64_t t452 = (int64_t)((uint64_t)v_s0_p_ilo1 - (uint64_t)v_s1_ox);
                                                                                                        int64_t t453 = t452;
                                                                                                        int64_t t454 = (int64_t)((uint64_t)v_s0_p_hi0 - (uint64_t)v_s0_co0);
                                                                                                        int64_t t455 = (int64_t)((uint64_t)t454 + (uint64_t)INT64_C(1));
                                                                                                        int64_t t456 = t455;
                                                                                                        int64_t t457 = (int64_t)((uint64_t)v_s0_p_ihi1 - (uint64_t)v_s0_p_ilo1);
                                                                                                        int64_t t458 = (int64_t)((uint64_t)t457 + (uint64_t)INT64_C(1));
                                                                                                        int64_t t459 = t458;
                                                                                                        int64_t t460 = v_s0_co0;
                                                                                                        int64_t t461 = v_s0_p_ilo1;
                                                                                                        if (t456 > 0 && t459 > 0) {
                                                                                                            if ((t461 + INT64_C(-1)) < -b0_d1 || ((t461 + t459 - 1) + INT64_C(-1)) >= b0_d1) { return 4; }
                                                                                                            if (t460 < -b0_d0 || (t460 + t456 - 1) >= b0_d0) { return 4; }
                                                                                                            if ((t461 + INT64_C(1)) < -b0_d1 || ((t461 + t459 - 1) + INT64_C(1)) >= b0_d1) { return 4; }
                                                                                                            if (t461 < -b0_d1 || (t461 + t459 - 1) >= b0_d1) { return 4; }
                                                                                                            if ((t461 + INT64_C(-1)) >= 0 && t460 >= 0 && (t461 + INT64_C(1)) >= 0 && t461 >= 0) {
                                                                                                                int64_t t462 = t64 == t459 && b0_d1 == t459;
                                                                                                                int64_t t463 = t462 ? INT64_C(1) : t456;
                                                                                                                int64_t t464 = t462 ? t456 * t459 : t459;
                                                                                                                for (int64_t i0_465 = 0; i0_465 < t463; ++i0_465) {
                                                                                                                    #pragma omp simd
                                                                                                                    for (int64_t i1_466 = 0; i1_466 < t464; ++i1_466) {
                                                                                                                        int64_t t467 = t460 + i0_465;
                                                                                                                        int64_t t468 = t461 + i1_466;
                                                                                                                        int64_t t469 = (int64_t)((uint64_t)t468 + (uint64_t)INT64_C(-1));
                                                                                                                        int64_t t470 = t469;
                                                                                                                        int64_t t471 = t467;
                                                                                                                        int64_t t472 = t470 * b0_s1 + t471 * b0_s0;
                                                                                                                        uint8_t t473 = b0[t472];
                                                                                                                        int64_t t474 = (int64_t)t473;
                                                                                                                        int64_t t475 = (int64_t)(uint32_t)(t474);
                                                                                                                        int64_t t476 = (int64_t)((uint64_t)t468 + (uint64_t)INT64_C(1));
                                                                                                                        int64_t t477 = t476;
                                                                                                                        int64_t t478 = t467;
                                                                                                                        int64_t t479 = t477 * b0_s1 + t478 * b0_s0;
                                                                                                                        uint8_t t480 = b0[t479];
                                                                                                                        int64_t t481 = (int64_t)t480;
                                                                                                                        int64_t t482 = (int64_t)(uint32_t)(t481);
                                                                                                                        int64_t t483 = (int64_t)((uint64_t)t475 + (uint64_t)t482);
                                                                                                                        int64_t t484 = t468;
                                                                                                                        int64_t t485 = t467;
                                                                                                                        int64_t t486 = t484 * b0_s1 + t485 * b0_s0;
                                                                                                                        uint8_t t487 = b0[t486];
                                                                                                                        int64_t t488 = (int64_t)t487;
                                                                                                                        int64_t t489 = (int64_t)(uint32_t)(t488);
                                                                                                                        int64_t t490 = (int64_t)((uint64_t)t483 + (uint64_t)t489);
                                                                                                                        int64_t t491 = (t490) >> ((INT64_C(1)) & 63);
                                                                                                                        int64_t t492 = (int64_t)(uint8_t)(t491);
                                                                                                                        int64_t t493 = (int64_t)(uint8_t)(t492);
                                                                                                                        int64_t t494 = (t451 + i0_465) * t67 + (t453 + i1_466) * t66;
                                                                                                                        a_bx_scratch_0[t494] = (uint8_t)(t493);
                                                                                                                    }
                                                                                                                }
                                                                                                            } else {
                                                                                                                for (int64_t i0_495 = 0; i0_495 < t456; ++i0_495) {
                                                                                                                    #pragma omp simd
                                                                                                                    for (int64_t i1_496 = 0; i1_496 < t459; ++i1_496) {
                                                                                                                        int64_t t497 = t460 + i0_495;
                                                                                                                        int64_t t498 = t461 + i1_496;
                                                                                                                        int64_t t499 = (int64_t)((uint64_t)t498 + (uint64_t)INT64_C(-1));
                                                                                                                        int64_t t500 = t499;
                                                                                                                        int64_t t501 = t500 + ((t500 >> 63) & b0_d1);
                                                                                                                        int64_t t502 = t497;
                                                                                                                        int64_t t503 = t502 + ((t502 >> 63) & b0_d0);
                                                                                                                        int64_t t504 = t501 * b0_s1 + t503 * b0_s0;
                                                                                                                        uint8_t t505 = b0[t504];
                                                                                                                        int64_t t506 = (int64_t)t505;
                                                                                                                        int64_t t507 = (int64_t)(uint32_t)(t506);
                                                                                                                        int64_t t508 = (int64_t)((uint64_t)t498 + (uint64_t)INT64_C(1));
                                                                                                                        int64_t t509 = t508;
                                                                                                                        int64_t t510 = t509 + ((t509 >> 63) & b0_d1);
                                                                                                                        int64_t t511 = t497;
                                                                                                                        int64_t t512 = t511 + ((t511 >> 63) & b0_d0);
                                                                                                                        int64_t t513 = t510 * b0_s1 + t512 * b0_s0;
                                                                                                                        uint8_t t514 = b0[t513];
                                                                                                                        int64_t t515 = (int64_t)t514;
                                                                                                                        int64_t t516 = (int64_t)(uint32_t)(t515);
                                                                                                                        int64_t t517 = (int64_t)((uint64_t)t507 + (uint64_t)t516);
                                                                                                                        int64_t t518 = t498;
                                                                                                                        int64_t t519 = t518 + ((t518 >> 63) & b0_d1);
                                                                                                                        int64_t t520 = t497;
                                                                                                                        int64_t t521 = t520 + ((t520 >> 63) & b0_d0);
                                                                                                                        int64_t t522 = t519 * b0_s1 + t521 * b0_s0;
                                                                                                                        uint8_t t523 = b0[t522];
                                                                                                                        int64_t t524 = (int64_t)t523;
                                                                                                                        int64_t t525 = (int64_t)(uint32_t)(t524);
                                                                                                                        int64_t t526 = (int64_t)((uint64_t)t517 + (uint64_t)t525);
                                                                                                                        int64_t t527 = (t526) >> ((INT64_C(1)) & 63);
                                                                                                                        int64_t t528 = (int64_t)(uint8_t)(t527);
                                                                                                                        int64_t t529 = (int64_t)(uint8_t)(t528);
                                                                                                                        int64_t t530 = (t451 + i0_495) * t67 + (t453 + i1_496) * t66;
                                                                                                                        a_bx_scratch_0[t530] = (uint8_t)(t529);
                                                                                                                    }
                                                                                                                }
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                                { /* pad_edge bx.scratch#0 */
                                                                                                    int64_t t531 = v_s0_coff0;
                                                                                                    int64_t t532 = v_s0_coff1;
                                                                                                    int64_t t533 = v_s0_ce0;
                                                                                                    int64_t t534 = v_s0_ce1;
                                                                                                    int64_t t535 = t531 + t533;
                                                                                                    if (t531 > 0) {
                                                                                                        {
                                                                                                            for (int64_t p0 = 0; p0 < t531; ++p0) {
                                                                                                                for (int64_t p1 = 0; p1 < t64; ++p1) {
                                                                                                                    int64_t t536 = p0 * t67 + p1 * t66;
                                                                                                                    int64_t t537 = t531 * t67 + p1 * t66;
                                                                                                                    a_bx_scratch_0[t536] = a_bx_scratch_0[t537];
                                                                                                                }
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                    if (t63 > t535) {
                                                                                                        {
                                                                                                            for (int64_t p0_538 = t535; p0_538 < t63; ++p0_538) {
                                                                                                                for (int64_t p1_539 = 0; p1_539 < t64; ++p1_539) {
                                                                                                                    int64_t t540 = p0_538 * t67 + p1_539 * t66;
                                                                                                                    int64_t t541 = (t535 - 1) * t67 + p1_539 * t66;
                                                                                                                    a_bx_scratch_0[t540] = a_bx_scratch_0[t541];
                                                                                                                }
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                    int64_t t542 = t532 + t534;
                                                                                                    if (t532 > 0) {
                                                                                                        {
                                                                                                            for (int64_t p0_543 = 0; p0_543 < t63; ++p0_543) {
                                                                                                                for (int64_t p1_544 = 0; p1_544 < t532; ++p1_544) {
                                                                                                                    int64_t t545 = p0_543 * t67 + p1_544 * t66;
                                                                                                                    int64_t t546 = p0_543 * t67 + t532 * t66;
                                                                                                                    a_bx_scratch_0[t545] = a_bx_scratch_0[t546];
                                                                                                                }
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                    if (t64 > t542) {
                                                                                                        {
                                                                                                            for (int64_t p0_547 = 0; p0_547 < t63; ++p0_547) {
                                                                                                                for (int64_t p1_548 = t542; p1_548 < t64; ++p1_548) {
                                                                                                                    int64_t t549 = p0_547 * t67 + p1_548 * t66;
                                                                                                                    int64_t t550 = p0_547 * t67 + (t542 - 1) * t66;
                                                                                                                    a_bx_scratch_0[t549] = a_bx_scratch_0[t550];
                                                                                                                }
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                                /* consume bx */
                                                                                                { /* store consume */
                                                                                                    int64_t t551 = v_s1_oy;
                                                                                                    int64_t t552 = v_s1_ox;
                                                                                                    int64_t t553 = v_s1_ey;
                                                                                                    int64_t t554 = v_s1_ex;
                                                                                                    int64_t t555 = INT64_C(0);
                                                                                                    int64_t t556 = INT64_C(0);
                                                                                                    if (t553 > 0 && t554 > 0) {
                                                                                                        if (t556 < -t64 || (t556 + t554 - 1) >= t64) { return 4; }
                                                                                                        if ((t555 + INT64_C(1)) < -t63 || ((t555 + t553 - 1) + INT64_C(1)) >= t63) { return 4; }
                                                                                                        if ((t555 + INT64_C(2)) < -t63 || ((t555 + t553 - 1) + INT64_C(2)) >= t63) { return 4; }
                                                                                                        if (t555 < -t63 || (t555 + t553 - 1) >= t63) { return 4; }
                                                                                                        if (t556 >= 0 && (t555 + INT64_C(1)) >= 0 && (t555 + INT64_C(2)) >= 0 && t555 >= 0) {
                                                                                                            int64_t t557 = b1_d1 == t554 && t64 == t554;
                                                                                                            int64_t t558 = t557 ? INT64_C(1) : t553;
                                                                                                            int64_t t559 = t557 ? t553 * t554 : t554;
                                                                                                            for (int64_t i0_560 = 0; i0_560 < t558; ++i0_560) {
                                                                                                                #pragma omp simd
                                                                                                                for (int64_t i1_561 = 0; i1_561 < t559; ++i1_561) {
                                                                                                                    int64_t t562 = t555 + i0_560;
                                                                                                                    int64_t t563 = t556 + i1_561;
                                                                                                                    int64_t t564 = t563;
                                                                                                                    int64_t t565 = (int64_t)((uint64_t)t562 + (uint64_t)INT64_C(1));
                                                                                                                    int64_t t566 = t565;
                                                                                                                    int64_t t567 = t564 * t66 + t566 * t67;
                                                                                                                    uint8_t t568 = a_bx_scratch_0[t567];
                                                                                                                    int64_t t569 = (int64_t)t568;
                                                                                                                    int64_t t570 = (int64_t)(uint32_t)(t569);
                                                                                                                    int64_t t571 = t563;
                                                                                                                    int64_t t572 = (int64_t)((uint64_t)t562 + (uint64_t)INT64_C(2));
                                                                                                                    int64_t t573 = t572;
                                                                                                                    int64_t t574 = t571 * t66 + t573 * t67;
                                                                                                                    uint8_t t575 = a_bx_scratch_0[t574];
                                                                                                                    int64_t t576 = (int64_t)t575;
                                                                                                                    int64_t t577 = (int64_t)(uint32_t)(t576);
                                                                                                                    int64_t t578 = (int64_t)((uint64_t)t570 + (uint64_t)t577);
                                                                                                                    int64_t t579 = t563;
                                                                                                                    int64_t t580 = t562;
                                                                                                                    int64_t t581 = t579 * t66 + t580 * t67;
                                                                                                                    uint8_t t582 = a_bx_scratch_0[t581];
                                                                                                                    int64_t t583 = (int64_t)t582;
                                                                                                                    int64_t t584 = (int64_t)(uint32_t)(t583);
                                                                                                                    int64_t t585 = (int64_t)((uint64_t)t578 + (uint64_t)t584);
                                                                                                                    int64_t t586 = (t585) >> ((INT64_C(1)) & 63);
                                                                                                                    int64_t t587 = (int64_t)(uint8_t)(t586);
                                                                                                                    int64_t t588 = (int64_t)(uint8_t)(t587);
                                                                                                                    int64_t t589 = (t551 + i0_560) * b1_s0 + (t552 + i1_561) * b1_s1;
                                                                                                                    b1[t589] = (uint8_t)(t588);
                                                                                                                }
                                                                                                            }
                                                                                                        } else {
                                                                                                            for (int64_t i0_590 = 0; i0_590 < t553; ++i0_590) {
                                                                                                                #pragma omp simd
                                                                                                                for (int64_t i1_591 = 0; i1_591 < t554; ++i1_591) {
                                                                                                                    int64_t t592 = t555 + i0_590;
                                                                                                                    int64_t t593 = t556 + i1_591;
                                                                                                                    int64_t t594 = t593;
                                                                                                                    int64_t t595 = t594 + ((t594 >> 63) & t64);
                                                                                                                    int64_t t596 = (int64_t)((uint64_t)t592 + (uint64_t)INT64_C(1));
                                                                                                                    int64_t t597 = t596;
                                                                                                                    int64_t t598 = t597 + ((t597 >> 63) & t63);
                                                                                                                    int64_t t599 = t595 * t66 + t598 * t67;
                                                                                                                    uint8_t t600 = a_bx_scratch_0[t599];
                                                                                                                    int64_t t601 = (int64_t)t600;
                                                                                                                    int64_t t602 = (int64_t)(uint32_t)(t601);
                                                                                                                    int64_t t603 = t593;
                                                                                                                    int64_t t604 = t603 + ((t603 >> 63) & t64);
                                                                                                                    int64_t t605 = (int64_t)((uint64_t)t592 + (uint64_t)INT64_C(2));
                                                                                                                    int64_t t606 = t605;
                                                                                                                    int64_t t607 = t606 + ((t606 >> 63) & t63);
                                                                                                                    int64_t t608 = t604 * t66 + t607 * t67;
                                                                                                                    uint8_t t609 = a_bx_scratch_0[t608];
                                                                                                                    int64_t t610 = (int64_t)t609;
                                                                                                                    int64_t t611 = (int64_t)(uint32_t)(t610);
                                                                                                                    int64_t t612 = (int64_t)((uint64_t)t602 + (uint64_t)t611);
                                                                                                                    int64_t t613 = t593;
                                                                                                                    int64_t t614 = t613 + ((t613 >> 63) & t64);
                                                                                                                    int64_t t615 = t592;
                                                                                                                    int64_t t616 = t615 + ((t615 >> 63) & t63);
                                                                                                                    int64_t t617 = t614 * t66 + t616 * t67;
                                                                                                                    uint8_t t618 = a_bx_scratch_0[t617];
                                                                                                                    int64_t t619 = (int64_t)t618;
                                                                                                                    int64_t t620 = (int64_t)(uint32_t)(t619);
                                                                                                                    int64_t t621 = (int64_t)((uint64_t)t612 + (uint64_t)t620);
                                                                                                                    int64_t t622 = (t621) >> ((INT64_C(1)) & 63);
                                                                                                                    int64_t t623 = (int64_t)(uint8_t)(t622);
                                                                                                                    int64_t t624 = (int64_t)(uint8_t)(t623);
                                                                                                                    int64_t t625 = (t551 + i0_590) * b1_s0 + (t552 + i1_591) * b1_s1;
                                                                                                                    b1[t625] = (uint8_t)(t624);
                                                                                                                }
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                                free(a_bx_scratch_0);
                                                                                            }
                                                                                        }
                                                                                    }
                                                                                }
                                                                            }
                                                                        }
                                                                    }
                                                                }
                                                            }
                                                        }
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return 0;
}

int64_t rp_seg1(void **bufs, const int64_t *shapes, const int64_t *env, const int64_t *iparams, const double *fparams) {
    (void)bufs; (void)shapes; (void)env; (void)iparams; (void)fparams;
    uint8_t * restrict b0 = (uint8_t *)bufs[0];
    const int64_t b0_d0 = shapes[0];
    const int64_t b0_d1 = shapes[1];
    const int64_t b0_s1 = 1;
    const int64_t b0_s0 = b0_s1 * b0_d1;
    uint8_t * restrict b1 = (uint8_t *)bufs[1];
    const int64_t b1_d0 = shapes[2];
    const int64_t b1_d1 = shapes[3];
    const int64_t b1_s1 = 1;
    const int64_t b1_s0 = b1_s1 * b1_d1;
    const int64_t ev0_by_tile_y = env[0];
    {
        int64_t t1 = INT64_C(0);
        int64_t t2 = INT64_C(2);
        int64_t t3 = t1 + t2;
        for (int64_t v_by_tile_x = t1; v_by_tile_x < t3; ++v_by_tile_x) {
            {
                int64_t t4 = (int64_t)((uint64_t)ev0_by_tile_y * (uint64_t)INT64_C(32));
                int64_t v_s1_oy = t4;
                {
                    int64_t t5 = (int64_t)((uint64_t)v_by_tile_x * (uint64_t)INT64_C(64));
                    int64_t v_s1_ox = t5;
                    {
                        int64_t t6 = (int64_t)((uint64_t)INT64_C(96) - (uint64_t)v_s1_oy);
                        int64_t t7 = INT64_C(32);
                        int64_t t8 = t6;
                        int64_t t9 = (t7 < t8) ? t7 : t8;
                        int64_t v_s1_ey = t9;
                        {
                            int64_t t10 = (int64_t)((uint64_t)INT64_C(128) - (uint64_t)v_s1_ox);
                            int64_t t11 = INT64_C(64);
                            int64_t t12 = t10;
                            int64_t t13 = (t11 < t12) ? t11 : t12;
                            int64_t v_s1_ex = t13;
                            {
                                int64_t t14 = (int64_t)((uint64_t)v_s1_oy + (uint64_t)INT64_C(-1));
                                int64_t v_s0_ro0 = t14;
                                {
                                    int64_t t15 = (int64_t)((uint64_t)v_s1_ey + (uint64_t)INT64_C(2));
                                    int64_t v_s0_re0 = t15;
                                    {
                                        int64_t t16 = v_s0_ro0;
                                        int64_t t17 = INT64_C(0);
                                        int64_t t18 = (t16 > t17) ? t16 : t17;
                                        int64_t t19 = t18;
                                        int64_t t20 = INT64_C(95);
                                        int64_t t21 = (t19 < t20) ? t19 : t20;
                                        int64_t v_s0_co0 = t21;
                                        {
                                            int64_t t22 = (int64_t)((uint64_t)v_s0_ro0 + (uint64_t)v_s0_re0);
                                            int64_t t23 = (int64_t)((uint64_t)t22 - (uint64_t)INT64_C(1));
                                            int64_t t24 = t23;
                                            int64_t t25 = INT64_C(0);
                                            int64_t t26 = (t24 > t25) ? t24 : t25;
                                            int64_t t27 = t26;
                                            int64_t t28 = INT64_C(95);
                                            int64_t t29 = (t27 < t28) ? t27 : t28;
                                            int64_t v_s0_chi0 = t29;
                                            {
                                                int64_t t30 = (int64_t)((uint64_t)v_s0_chi0 - (uint64_t)v_s0_co0);
                                                int64_t t31 = (int64_t)((uint64_t)t30 + (uint64_t)INT64_C(1));
                                                int64_t v_s0_ce0 = t31;
                                                {
                                                    int64_t t32 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                    int64_t v_s0_coff0 = t32;
                                                    {
                                                        int64_t t33 = v_s1_ox;
                                                        int64_t t34 = INT64_C(0);
                                                        int64_t t35 = (t33 > t34) ? t33 : t34;
                                                        int64_t t36 = t35;
                                                        int64_t t37 = INT64_C(127);
                                                        int64_t t38 = (t36 < t37) ? t36 : t37;
                                                        int64_t v_s0_co1 = t38;
                                                        {
                                                            int64_t t39 = (int64_t)((uint64_t)v_s1_ox + (uint64_t)v_s1_ex);
                                                            int64_t t40 = (int64_t)((uint64_t)t39 - (uint64_t)INT64_C(1));
                                                            int64_t t41 = t40;
                                                            int64_t t42 = INT64_C(0);
                                                            int64_t t43 = (t41 > t42) ? t41 : t42;
                                                            int64_t t44 = t43;
                                                            int64_t t45 = INT64_C(127);
                                                            int64_t t46 = (t44 < t45) ? t44 : t45;
                                                            int64_t v_s0_chi1 = t46;
                                                            {
                                                                int64_t t47 = (int64_t)((uint64_t)v_s0_chi1 - (uint64_t)v_s0_co1);
                                                                int64_t t48 = (int64_t)((uint64_t)t47 + (uint64_t)INT64_C(1));
                                                                int64_t v_s0_ce1 = t48;
                                                                {
                                                                    int64_t t49 = (int64_t)((uint64_t)v_s0_co1 - (uint64_t)v_s1_ox);
                                                                    int64_t v_s0_coff1 = t49;
                                                                    {
                                                                        int64_t t50 = (int64_t)((uint64_t)v_s0_co0 + (uint64_t)v_s0_ce0);
                                                                        int64_t t51 = (int64_t)((uint64_t)t50 - (uint64_t)INT64_C(1));
                                                                        int64_t v_s0_p_hi0 = t51;
                                                                        {
                                                                            int64_t t52 = (int64_t)((uint64_t)v_s0_co1 + (uint64_t)v_s0_ce1);
                                                                            int64_t t53 = (int64_t)((uint64_t)t52 - (uint64_t)INT64_C(1));
                                                                            int64_t v_s0_p_hi1 = t53;
                                                                            {
                                                                                int64_t t54 = v_s0_co1;
                                                                                int64_t t55 = INT64_C(1);
                                                                                int64_t t56 = (t54 > t55) ? t54 : t55;
                                                                                int64_t v_s0_p_ilo1 = t56;
                                                                                {
                                                                                    int64_t t57 = v_s0_p_hi1;
                                                                                    int64_t t58 = INT64_C(126);
                                                                                    int64_t t59 = (t57 < t58) ? t57 : t58;
                                                                                    int64_t v_s0_p_ihi1 = t59;
                                                                                    { /* allocate bx.scratch#0 */
                                                                                        int64_t t60 = v_s0_re0;
                                                                                        int64_t t61 = v_s1_ex;
                                                                                        int64_t t62 = t60 * t61;
                                                                                        uint8_t * restrict a_bx_scratch_0 = (uint8_t *)malloc((size_t)t62 * sizeof(uint8_t));
                                                                                        if (!a_bx_scratch_0) { return 3; }
                                                                                        int64_t t63 = 1;
                                                                                        int64_t t64 = t63 * t61;
                                                                                        /* produce bx */
                                                                                        int64_t t65 = (int64_t)((uint64_t)v_s0_co1 + (uint64_t)INT64_C(-1));
                                                                                        int64_t t66 = (int64_t)(t65 >= INT64_C(0));
                                                                                        int64_t t67 = (int64_t)((uint64_t)v_s0_co1 + (uint64_t)v_s0_ce1);
                                                                                        int64_t t68 = (int64_t)((uint64_t)t67 + (uint64_t)INT64_C(1));
                                                                                        int64_t t69 = (int64_t)(t68 <= INT64_C(128));
                                                                                        int64_t t70 = (t66) & (t69);
                                                                                        int64_t t71 = t70;
                                                                                        if (t71 != 0) {
                                                                                            { /* store interior-whole */
                                                                                                int64_t t72 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                                                                int64_t t73 = t72;
                                                                                                int64_t t74 = (int64_t)((uint64_t)v_s0_co1 - (uint64_t)v_s1_ox);
                                                                                                int64_t t75 = t74;
                                                                                                int64_t t76 = v_s0_ce0;
                                                                                                int64_t t77 = v_s0_ce1;
                                                                                                int64_t t78 = v_s0_co0;
                                                                                                int64_t t79 = v_s0_co1;
                                                                                                if (t76 > 0 && t77 > 0) {
                                                                                                    if ((t79 + INT64_C(-1)) < -b0_d1 || ((t79 + t77 - 1) + INT64_C(-1)) >= b0_d1) { return 4; }
                                                                                                    if (t78 < -b0_d0 || (t78 + t76 - 1) >= b0_d0) { return 4; }
                                                                                                    if ((t79 + INT64_C(1)) < -b0_d1 || ((t79 + t77 - 1) + INT64_C(1)) >= b0_d1) { return 4; }
                                                                                                    if (t79 < -b0_d1 || (t79 + t77 - 1) >= b0_d1) { return 4; }
                                                                                                    if ((t79 + INT64_C(-1)) >= 0 && t78 >= 0 && (t79 + INT64_C(1)) >= 0 && t79 >= 0) {
                                                                                                        int64_t t80 = t61 == t77 && b0_d1 == t77;
                                                                                                        int64_t t81 = t80 ? INT64_C(1) : t76;
                                                                                                        int64_t t82 = t80 ? t76 * t77 : t77;
                                                                                                        for (int64_t i0 = 0; i0 < t81; ++i0) {
                                                                                                            #pragma omp simd
                                                                                                            for (int64_t i1 = 0; i1 < t82; ++i1) {
                                                                                                                int64_t t83 = t78 + i0;
                                                                                                                int64_t t84 = t79 + i1;
                                                                                                                int64_t t85 = (int64_t)((uint64_t)t84 + (uint64_t)INT64_C(-1));
                                                                                                                int64_t t86 = t85;
                                                                                                                int64_t t87 = t83;
                                                                                                                int64_t t88 = t86 * b0_s1 + t87 * b0_s0;
                                                                                                                uint8_t t89 = b0[t88];
                                                                                                                int64_t t90 = (int64_t)t89;
                                                                                                                int64_t t91 = (int64_t)(uint32_t)(t90);
                                                                                                                int64_t t92 = (int64_t)((uint64_t)t84 + (uint64_t)INT64_C(1));
                                                                                                                int64_t t93 = t92;
                                                                                                                int64_t t94 = t83;
                                                                                                                int64_t t95 = t93 * b0_s1 + t94 * b0_s0;
                                                                                                                uint8_t t96 = b0[t95];
                                                                                                                int64_t t97 = (int64_t)t96;
                                                                                                                int64_t t98 = (int64_t)(uint32_t)(t97);
                                                                                                                int64_t t99 = (int64_t)((uint64_t)t91 + (uint64_t)t98);
                                                                                                                int64_t t100 = t84;
                                                                                                                int64_t t101 = t83;
                                                                                                                int64_t t102 = t100 * b0_s1 + t101 * b0_s0;
                                                                                                                uint8_t t103 = b0[t102];
                                                                                                                int64_t t104 = (int64_t)t103;
                                                                                                                int64_t t105 = (int64_t)(uint32_t)(t104);
                                                                                                                int64_t t106 = (int64_t)((uint64_t)t99 + (uint64_t)t105);
                                                                                                                int64_t t107 = (t106) >> ((INT64_C(1)) & 63);
                                                                                                                int64_t t108 = (int64_t)(uint8_t)(t107);
                                                                                                                int64_t t109 = (int64_t)(uint8_t)(t108);
                                                                                                                int64_t t110 = (t73 + i0) * t64 + (t75 + i1) * t63;
                                                                                                                a_bx_scratch_0[t110] = (uint8_t)(t109);
                                                                                                            }
                                                                                                        }
                                                                                                    } else {
                                                                                                        for (int64_t i0_111 = 0; i0_111 < t76; ++i0_111) {
                                                                                                            #pragma omp simd
                                                                                                            for (int64_t i1_112 = 0; i1_112 < t77; ++i1_112) {
                                                                                                                int64_t t113 = t78 + i0_111;
                                                                                                                int64_t t114 = t79 + i1_112;
                                                                                                                int64_t t115 = (int64_t)((uint64_t)t114 + (uint64_t)INT64_C(-1));
                                                                                                                int64_t t116 = t115;
                                                                                                                int64_t t117 = t116 + ((t116 >> 63) & b0_d1);
                                                                                                                int64_t t118 = t113;
                                                                                                                int64_t t119 = t118 + ((t118 >> 63) & b0_d0);
                                                                                                                int64_t t120 = t117 * b0_s1 + t119 * b0_s0;
                                                                                                                uint8_t t121 = b0[t120];
                                                                                                                int64_t t122 = (int64_t)t121;
                                                                                                                int64_t t123 = (int64_t)(uint32_t)(t122);
                                                                                                                int64_t t124 = (int64_t)((uint64_t)t114 + (uint64_t)INT64_C(1));
                                                                                                                int64_t t125 = t124;
                                                                                                                int64_t t126 = t125 + ((t125 >> 63) & b0_d1);
                                                                                                                int64_t t127 = t113;
                                                                                                                int64_t t128 = t127 + ((t127 >> 63) & b0_d0);
                                                                                                                int64_t t129 = t126 * b0_s1 + t128 * b0_s0;
                                                                                                                uint8_t t130 = b0[t129];
                                                                                                                int64_t t131 = (int64_t)t130;
                                                                                                                int64_t t132 = (int64_t)(uint32_t)(t131);
                                                                                                                int64_t t133 = (int64_t)((uint64_t)t123 + (uint64_t)t132);
                                                                                                                int64_t t134 = t114;
                                                                                                                int64_t t135 = t134 + ((t134 >> 63) & b0_d1);
                                                                                                                int64_t t136 = t113;
                                                                                                                int64_t t137 = t136 + ((t136 >> 63) & b0_d0);
                                                                                                                int64_t t138 = t135 * b0_s1 + t137 * b0_s0;
                                                                                                                uint8_t t139 = b0[t138];
                                                                                                                int64_t t140 = (int64_t)t139;
                                                                                                                int64_t t141 = (int64_t)(uint32_t)(t140);
                                                                                                                int64_t t142 = (int64_t)((uint64_t)t133 + (uint64_t)t141);
                                                                                                                int64_t t143 = (t142) >> ((INT64_C(1)) & 63);
                                                                                                                int64_t t144 = (int64_t)(uint8_t)(t143);
                                                                                                                int64_t t145 = (int64_t)(uint8_t)(t144);
                                                                                                                int64_t t146 = (t73 + i0_111) * t64 + (t75 + i1_112) * t63;
                                                                                                                a_bx_scratch_0[t146] = (uint8_t)(t145);
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                        } else {
                                                                                            { /* store border-lo1 */
                                                                                                int64_t t147 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                                                                int64_t t148 = t147;
                                                                                                int64_t t149 = (int64_t)((uint64_t)v_s0_co1 - (uint64_t)v_s1_ox);
                                                                                                int64_t t150 = t149;
                                                                                                int64_t t151 = (int64_t)((uint64_t)v_s0_p_hi0 - (uint64_t)v_s0_co0);
                                                                                                int64_t t152 = (int64_t)((uint64_t)t151 + (uint64_t)INT64_C(1));
                                                                                                int64_t t153 = t152;
                                                                                                int64_t t154 = (int64_t)((uint64_t)v_s0_p_ilo1 - (uint64_t)v_s0_co1);
                                                                                                int64_t t155 = t154;
                                                                                                int64_t t156 = v_s0_co0;
                                                                                                int64_t t157 = v_s0_co1;
                                                                                                if (t153 > 0 && t155 > 0) {
                                                                                                    if (((INT64_C(127)) < (((INT64_C(0)) > ((t157 + INT64_C(-1))) ? (INT64_C(0)) : ((t157 + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t157 + INT64_C(-1))) ? (INT64_C(0)) : ((t157 + INT64_C(-1)))))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > (((t157 + t155 - 1) + INT64_C(-1))) ? (INT64_C(0)) : (((t157 + t155 - 1) + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > (((t157 + t155 - 1) + INT64_C(-1))) ? (INT64_C(0)) : (((t157 + t155 - 1) + INT64_C(-1)))))) >= b0_d1) { return 4; }
                                                                                                    if (((INT64_C(95)) < (((INT64_C(0)) > (t156) ? (INT64_C(0)) : (t156))) ? (INT64_C(95)) : (((INT64_C(0)) > (t156) ? (INT64_C(0)) : (t156)))) < -b0_d0 || ((INT64_C(95)) < (((INT64_C(0)) > ((t156 + t153 - 1)) ? (INT64_C(0)) : ((t156 + t153 - 1)))) ? (INT64_C(95)) : (((INT64_C(0)) > ((t156 + t153 - 1)) ? (INT64_C(0)) : ((t156 + t153 - 1))))) >= b0_d0) { return 4; }
                                                                                                    if (((INT64_C(127)) < (((INT64_C(0)) > ((t157 + INT64_C(1))) ? (INT64_C(0)) : ((t157 + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t157 + INT64_C(1))) ? (INT64_C(0)) : ((t157 + INT64_C(1)))))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > (((t157 + t155 - 1) + INT64_C(1))) ? (INT64_C(0)) : (((t157 + t155 - 1) + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > (((t157 + t155 - 1) + INT64_C(1))) ? (INT64_C(0)) : (((t157 + t155 - 1) + INT64_C(1)))))) >= b0_d1) { return 4; }
                                                                                                    if (((INT64_C(127)) < (((INT64_C(0)) > (t157) ? (INT64_C(0)) : (t157))) ? (INT64_C(127)) : (((INT64_C(0)) > (t157) ? (INT64_C(0)) : (t157)))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > ((t157 + t155 - 1)) ? (INT64_C(0)) : ((t157 + t155 - 1)))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t157 + t155 - 1)) ? (INT64_C(0)) : ((t157 + t155 - 1))))) >= b0_d1) { return 4; }
                                                                                                    if (((INT64_C(127)) < (((INT64_C(0)) > ((t157 + INT64_C(-1))) ? (INT64_C(0)) : ((t157 + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t157 + INT64_C(-1))) ? (INT64_C(0)) : ((t157 + INT64_C(-1)))))) >= 0 && ((INT64_C(95)) < (((INT64_C(0)) > (t156) ? (INT64_C(0)) : (t156))) ? (INT64_C(95)) : (((INT64_C(0)) > (t156) ? (INT64_C(0)) : (t156)))) >= 0 && ((INT64_C(127)) < (((INT64_C(0)) > ((t157 + INT64_C(1))) ? (INT64_C(0)) : ((t157 + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t157 + INT64_C(1))) ? (INT64_C(0)) : ((t157 + INT64_C(1)))))) >= 0 && ((INT64_C(127)) < (((INT64_C(0)) > (t157) ? (INT64_C(0)) : (t157))) ? (INT64_C(127)) : (((INT64_C(0)) > (t157) ? (INT64_C(0)) : (t157)))) >= 0) {
                                                                                                        for (int64_t i0_158 = 0; i0_158 < t153; ++i0_158) {
                                                                                                            #pragma omp simd
                                                                                                            for (int64_t i1_159 = 0; i1_159 < t155; ++i1_159) {
                                                                                                                int64_t t160 = t156 + i0_158;
                                                                                                                int64_t t161 = t157 + i1_159;
                                                                                                                int64_t t162 = (int64_t)((uint64_t)t161 + (uint64_t)INT64_C(-1));
                                                                                                                int64_t t163 = INT64_C(0);
                                                                                                                int64_t t164 = t162;
                                                                                                                int64_t t165 = (t163 > t164) ? t163 : t164;
                                                                                                                int64_t t166 = INT64_C(127);
                                                                                                                int64_t t167 = t165;
                                                                                                                int64_t t168 = (t166 < t167) ? t166 : t167;
                                                                                                                int64_t t169 = t168;
                                                                                                                int64_t t170 = INT64_C(0);
                                                                                                                int64_t t171 = t160;
                                                                                                                int64_t t172 = (t170 > t171) ? t170 : t171;
                                                                                                                int64_t t173 = INT64_C(95);
                                                                                                                int64_t t174 = t172;
                                                                                                                int64_t t175 = (t173 < t174) ? t173 : t174;
                                                                                                                int64_t t176 = t175;
                                                                                                                int64_t t177 = t169 * b0_s1 + t176 * b0_s0;
                                                                                                                uint8_t t178 = b0[t177];
                                                                                                                int64_t t179 = (int64_t)t178;
                                                                                                                int64_t t180 = (int64_t)(uint32_t)(t179);
                                                                                                                int64_t t181 = (int64_t)((uint64_t)t161 + (uint64_t)INT64_C(1));
                                                                                                                int64_t t182 = INT64_C(0);
                                                                                                                int64_t t183 = t181;
                                                                                                                int64_t t184 = (t182 > t183) ? t182 : t183;
                                                                                                                int64_t t185 = INT64_C(127);
                                                                                                                int64_t t186 = t184;
                                                                                                                int64_t t187 = (t185 < t186) ? t185 : t186;
                                                                                                                int64_t t188 = t187;
                                                                                                                int64_t t189 = INT64_C(0);
                                                                                                                int64_t t190 = t160;
                                                                                                                int64_t t191 = (t189 > t190) ? t189 : t190;
                                                                                                                int64_t t192 = INT64_C(95);
                                                                                                                int64_t t193 = t191;
                                                                                                                int64_t t194 = (t192 < t193) ? t192 : t193;
                                                                                                                int64_t t195 = t194;
                                                                                                                int64_t t196 = t188 * b0_s1 + t195 * b0_s0;
                                                                                                                uint8_t t197 = b0[t196];
                                                                                                                int64_t t198 = (int64_t)t197;
                                                                                                                int64_t t199 = (int64_t)(uint32_t)(t198);
                                                                                                                int64_t t200 = (int64_t)((uint64_t)t180 + (uint64_t)t199);
                                                                                                                int64_t t201 = INT64_C(0);
                                                                                                                int64_t t202 = t161;
                                                                                                                int64_t t203 = (t201 > t202) ? t201 : t202;
                                                                                                                int64_t t204 = INT64_C(127);
                                                                                                                int64_t t205 = t203;
                                                                                                                int64_t t206 = (t204 < t205) ? t204 : t205;
                                                                                                                int64_t t207 = t206;
                                                                                                                int64_t t208 = INT64_C(0);
                                                                                                                int64_t t209 = t160;
                                                                                                                int64_t t210 = (t208 > t209) ? t208 : t209;
                                                                                                                int64_t t211 = INT64_C(95);
                                                                                                                int64_t t212 = t210;
                                                                                                                int64_t t213 = (t211 < t212) ? t211 : t212;
                                                                                                                int64_t t214 = t213;
                                                                                                                int64_t t215 = t207 * b0_s1 + t214 * b0_s0;
                                                                                                                uint8_t t216 = b0[t215];
                                                                                                                int64_t t217 = (int64_t)t216;
                                                                                                                int64_t t218 = (int64_t)(uint32_t)(t217);
                                                                                                                int64_t t219 = (int64_t)((uint64_t)t200 + (uint64_t)t218);
                                                                                                                int64_t t220 = (t219) >> ((INT64_C(1)) & 63);
                                                                                                                int64_t t221 = (int64_t)(uint8_t)(t220);
                                                                                                                int64_t t222 = (int64_t)(uint8_t)(t221);
                                                                                                                int64_t t223 = (t148 + i0_158) * t64 + (t150 + i1_159) * t63;
                                                                                                                a_bx_scratch_0[t223] = (uint8_t)(t222);
                                                                                                            }
                                                                                                        }
                                                                                                    } else {
                                                                                                        for (int64_t i0_224 = 0; i0_224 < t153; ++i0_224) {
                                                                                                            #pragma omp simd
                                                                                                            for (int64_t i1_225 = 0; i1_225 < t155; ++i1_225) {
                                                                                                                int64_t t226 = t156 + i0_224;
                                                                                                                int64_t t227 = t157 + i1_225;
                                                                                                                int64_t t228 = (int64_t)((uint64_t)t227 + (uint64_t)INT64_C(-1));
                                                                                                                int64_t t229 = INT64_C(0);
                                                                                                                int64_t t230 = t228;
                                                                                                                int64_t t231 = (t229 > t230) ? t229 : t230;
                                                                                                                int64_t t232 = INT64_C(127);
                                                                                                                int64_t t233 = t231;
                                                                                                                int64_t t234 = (t232 < t233) ? t232 : t233;
                                                                                                                int64_t t235 = t234;
                                                                                                                int64_t t236 = t235 + ((t235 >> 63) & b0_d1);
                                                                                                                int64_t t237 = INT64_C(0);
                                                                                                                int64_t t238 = t226;
                                                                                                                int64_t t239 = (t237 > t238) ? t237 : t238;
                                                                                                                int64_t t240 = INT64_C(95);
                                                                                                                int64_t t241 = t239;
                                                                                                                int64_t t242 = (t240 < t241) ? t240 : t241;
                                                                                                                int64_t t243 = t242;
                                                                                                                int64_t t244 = t243 + ((t243 >> 63) & b0_d0);
                                                                                                                int64_t t245 = t236 * b0_s1 + t244 * b0_s0;
                                                                                                                uint8_t t246 = b0[t245];
                                                                                                                int64_t t247 = (int64_t)t246;
                                                                                                                int64_t t248 = (int64_t)(uint32_t)(t247);
                                                                                                                int64_t t249 = (int64_t)((uint64_t)t227 + (uint64_t)INT64_C(1));
                                                                                                                int64_t t250 = INT64_C(0);
                                                                                                                int64_t t251 = t249;
                                                                                                                int64_t t252 = (t250 > t251) ? t250 : t251;
                                                                                                                int64_t t253 = INT64_C(127);
                                                                                                                int64_t t254 = t252;
                                                                                                                int64_t t255 = (t253 < t254) ? t253 : t254;
                                                                                                                int64_t t256 = t255;
                                                                                                                int64_t t257 = t256 + ((t256 >> 63) & b0_d1);
                                                                                                                int64_t t258 = INT64_C(0);
                                                                                                                int64_t t259 = t226;
                                                                                                                int64_t t260 = (t258 > t259) ? t258 : t259;
                                                                                                                int64_t t261 = INT64_C(95);
                                                                                                                int64_t t262 = t260;
                                                                                                                int64_t t263 = (t261 < t262) ? t261 : t262;
                                                                                                                int64_t t264 = t263;
                                                                                                                int64_t t265 = t264 + ((t264 >> 63) & b0_d0);
                                                                                                                int64_t t266 = t257 * b0_s1 + t265 * b0_s0;
                                                                                                                uint8_t t267 = b0[t266];
                                                                                                                int64_t t268 = (int64_t)t267;
                                                                                                                int64_t t269 = (int64_t)(uint32_t)(t268);
                                                                                                                int64_t t270 = (int64_t)((uint64_t)t248 + (uint64_t)t269);
                                                                                                                int64_t t271 = INT64_C(0);
                                                                                                                int64_t t272 = t227;
                                                                                                                int64_t t273 = (t271 > t272) ? t271 : t272;
                                                                                                                int64_t t274 = INT64_C(127);
                                                                                                                int64_t t275 = t273;
                                                                                                                int64_t t276 = (t274 < t275) ? t274 : t275;
                                                                                                                int64_t t277 = t276;
                                                                                                                int64_t t278 = t277 + ((t277 >> 63) & b0_d1);
                                                                                                                int64_t t279 = INT64_C(0);
                                                                                                                int64_t t280 = t226;
                                                                                                                int64_t t281 = (t279 > t280) ? t279 : t280;
                                                                                                                int64_t t282 = INT64_C(95);
                                                                                                                int64_t t283 = t281;
                                                                                                                int64_t t284 = (t282 < t283) ? t282 : t283;
                                                                                                                int64_t t285 = t284;
                                                                                                                int64_t t286 = t285 + ((t285 >> 63) & b0_d0);
                                                                                                                int64_t t287 = t278 * b0_s1 + t286 * b0_s0;
                                                                                                                uint8_t t288 = b0[t287];
                                                                                                                int64_t t289 = (int64_t)t288;
                                                                                                                int64_t t290 = (int64_t)(uint32_t)(t289);
                                                                                                                int64_t t291 = (int64_t)((uint64_t)t270 + (uint64_t)t290);
                                                                                                                int64_t t292 = (t291) >> ((INT64_C(1)) & 63);
                                                                                                                int64_t t293 = (int64_t)(uint8_t)(t292);
                                                                                                                int64_t t294 = (int64_t)(uint8_t)(t293);
                                                                                                                int64_t t295 = (t148 + i0_224) * t64 + (t150 + i1_225) * t63;
                                                                                                                a_bx_scratch_0[t295] = (uint8_t)(t294);
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                            { /* store border-hi1 */
                                                                                                int64_t t296 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                                                                int64_t t297 = t296;
                                                                                                int64_t t298 = (int64_t)((uint64_t)v_s0_p_ihi1 + (uint64_t)INT64_C(1));
                                                                                                int64_t t299 = (int64_t)((uint64_t)t298 - (uint64_t)v_s1_ox);
                                                                                                int64_t t300 = t299;
                                                                                                int64_t t301 = (int64_t)((uint64_t)v_s0_p_hi0 - (uint64_t)v_s0_co0);
                                                                                                int64_t t302 = (int64_t)((uint64_t)t301 + (uint64_t)INT64_C(1));
                                                                                                int64_t t303 = t302;
                                                                                                int64_t t304 = (int64_t)((uint64_t)v_s0_p_hi1 - (uint64_t)v_s0_p_ihi1);
                                                                                                int64_t t305 = t304;
                                                                                                int64_t t306 = v_s0_co0;
                                                                                                int64_t t307 = (int64_t)((uint64_t)v_s0_p_ihi1 + (uint64_t)INT64_C(1));
                                                                                                int64_t t308 = t307;
                                                                                                if (t303 > 0 && t305 > 0) {
                                                                                                    if (((INT64_C(127)) < (((INT64_C(0)) > ((t308 + INT64_C(-1))) ? (INT64_C(0)) : ((t308 + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t308 + INT64_C(-1))) ? (INT64_C(0)) : ((t308 + INT64_C(-1)))))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > (((t308 + t305 - 1) + INT64_C(-1))) ? (INT64_C(0)) : (((t308 + t305 - 1) + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > (((t308 + t305 - 1) + INT64_C(-1))) ? (INT64_C(0)) : (((t308 + t305 - 1) + INT64_C(-1)))))) >= b0_d1) { return 4; }
                                                                                                    if (((INT64_C(95)) < (((INT64_C(0)) > (t306) ? (INT64_C(0)) : (t306))) ? (INT64_C(95)) : (((INT64_C(0)) > (t306) ? (INT64_C(0)) : (t306)))) < -b0_d0 || ((INT64_C(95)) < (((INT64_C(0)) > ((t306 + t303 - 1)) ? (INT64_C(0)) : ((t306 + t303 - 1)))) ? (INT64_C(95)) : (((INT64_C(0)) > ((t306 + t303 - 1)) ? (INT64_C(0)) : ((t306 + t303 - 1))))) >= b0_d0) { return 4; }
                                                                                                    if (((INT64_C(127)) < (((INT64_C(0)) > ((t308 + INT64_C(1))) ? (INT64_C(0)) : ((t308 + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t308 + INT64_C(1))) ? (INT64_C(0)) : ((t308 + INT64_C(1)))))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > (((t308 + t305 - 1) + INT64_C(1))) ? (INT64_C(0)) : (((t308 + t305 - 1) + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > (((t308 + t305 - 1) + INT64_C(1))) ? (INT64_C(0)) : (((t308 + t305 - 1) + INT64_C(1)))))) >= b0_d1) { return 4; }
                                                                                                    if (((INT64_C(127)) < (((INT64_C(0)) > (t308) ? (INT64_C(0)) : (t308))) ? (INT64_C(127)) : (((INT64_C(0)) > (t308) ? (INT64_C(0)) : (t308)))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > ((t308 + t305 - 1)) ? (INT64_C(0)) : ((t308 + t305 - 1)))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t308 + t305 - 1)) ? (INT64_C(0)) : ((t308 + t305 - 1))))) >= b0_d1) { return 4; }
                                                                                                    if (((INT64_C(127)) < (((INT64_C(0)) > ((t308 + INT64_C(-1))) ? (INT64_C(0)) : ((t308 + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t308 + INT64_C(-1))) ? (INT64_C(0)) : ((t308 + INT64_C(-1)))))) >= 0 && ((INT64_C(95)) < (((INT64_C(0)) > (t306) ? (INT64_C(0)) : (t306))) ? (INT64_C(95)) : (((INT64_C(0)) > (t306) ? (INT64_C(0)) : (t306)))) >= 0 && ((INT64_C(127)) < (((INT64_C(0)) > ((t308 + INT64_C(1))) ? (INT64_C(0)) : ((t308 + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t308 + INT64_C(1))) ? (INT64_C(0)) : ((t308 + INT64_C(1)))))) >= 0 && ((INT64_C(127)) < (((INT64_C(0)) > (t308) ? (INT64_C(0)) : (t308))) ? (INT64_C(127)) : (((INT64_C(0)) > (t308) ? (INT64_C(0)) : (t308)))) >= 0) {
                                                                                                        for (int64_t i0_309 = 0; i0_309 < t303; ++i0_309) {
                                                                                                            #pragma omp simd
                                                                                                            for (int64_t i1_310 = 0; i1_310 < t305; ++i1_310) {
                                                                                                                int64_t t311 = t306 + i0_309;
                                                                                                                int64_t t312 = t308 + i1_310;
                                                                                                                int64_t t313 = (int64_t)((uint64_t)t312 + (uint64_t)INT64_C(-1));
                                                                                                                int64_t t314 = INT64_C(0);
                                                                                                                int64_t t315 = t313;
                                                                                                                int64_t t316 = (t314 > t315) ? t314 : t315;
                                                                                                                int64_t t317 = INT64_C(127);
                                                                                                                int64_t t318 = t316;
                                                                                                                int64_t t319 = (t317 < t318) ? t317 : t318;
                                                                                                                int64_t t320 = t319;
                                                                                                                int64_t t321 = INT64_C(0);
                                                                                                                int64_t t322 = t311;
                                                                                                                int64_t t323 = (t321 > t322) ? t321 : t322;
                                                                                                                int64_t t324 = INT64_C(95);
                                                                                                                int64_t t325 = t323;
                                                                                                                int64_t t326 = (t324 < t325) ? t324 : t325;
                                                                                                                int64_t t327 = t326;
                                                                                                                int64_t t328 = t320 * b0_s1 + t327 * b0_s0;
                                                                                                                uint8_t t329 = b0[t328];
                                                                                                                int64_t t330 = (int64_t)t329;
                                                                                                                int64_t t331 = (int64_t)(uint32_t)(t330);
                                                                                                                int64_t t332 = (int64_t)((uint64_t)t312 + (uint64_t)INT64_C(1));
                                                                                                                int64_t t333 = INT64_C(0);
                                                                                                                int64_t t334 = t332;
                                                                                                                int64_t t335 = (t333 > t334) ? t333 : t334;
                                                                                                                int64_t t336 = INT64_C(127);
                                                                                                                int64_t t337 = t335;
                                                                                                                int64_t t338 = (t336 < t337) ? t336 : t337;
                                                                                                                int64_t t339 = t338;
                                                                                                                int64_t t340 = INT64_C(0);
                                                                                                                int64_t t341 = t311;
                                                                                                                int64_t t342 = (t340 > t341) ? t340 : t341;
                                                                                                                int64_t t343 = INT64_C(95);
                                                                                                                int64_t t344 = t342;
                                                                                                                int64_t t345 = (t343 < t344) ? t343 : t344;
                                                                                                                int64_t t346 = t345;
                                                                                                                int64_t t347 = t339 * b0_s1 + t346 * b0_s0;
                                                                                                                uint8_t t348 = b0[t347];
                                                                                                                int64_t t349 = (int64_t)t348;
                                                                                                                int64_t t350 = (int64_t)(uint32_t)(t349);
                                                                                                                int64_t t351 = (int64_t)((uint64_t)t331 + (uint64_t)t350);
                                                                                                                int64_t t352 = INT64_C(0);
                                                                                                                int64_t t353 = t312;
                                                                                                                int64_t t354 = (t352 > t353) ? t352 : t353;
                                                                                                                int64_t t355 = INT64_C(127);
                                                                                                                int64_t t356 = t354;
                                                                                                                int64_t t357 = (t355 < t356) ? t355 : t356;
                                                                                                                int64_t t358 = t357;
                                                                                                                int64_t t359 = INT64_C(0);
                                                                                                                int64_t t360 = t311;
                                                                                                                int64_t t361 = (t359 > t360) ? t359 : t360;
                                                                                                                int64_t t362 = INT64_C(95);
                                                                                                                int64_t t363 = t361;
                                                                                                                int64_t t364 = (t362 < t363) ? t362 : t363;
                                                                                                                int64_t t365 = t364;
                                                                                                                int64_t t366 = t358 * b0_s1 + t365 * b0_s0;
                                                                                                                uint8_t t367 = b0[t366];
                                                                                                                int64_t t368 = (int64_t)t367;
                                                                                                                int64_t t369 = (int64_t)(uint32_t)(t368);
                                                                                                                int64_t t370 = (int64_t)((uint64_t)t351 + (uint64_t)t369);
                                                                                                                int64_t t371 = (t370) >> ((INT64_C(1)) & 63);
                                                                                                                int64_t t372 = (int64_t)(uint8_t)(t371);
                                                                                                                int64_t t373 = (int64_t)(uint8_t)(t372);
                                                                                                                int64_t t374 = (t297 + i0_309) * t64 + (t300 + i1_310) * t63;
                                                                                                                a_bx_scratch_0[t374] = (uint8_t)(t373);
                                                                                                            }
                                                                                                        }
                                                                                                    } else {
                                                                                                        for (int64_t i0_375 = 0; i0_375 < t303; ++i0_375) {
                                                                                                            #pragma omp simd
                                                                                                            for (int64_t i1_376 = 0; i1_376 < t305; ++i1_376) {
                                                                                                                int64_t t377 = t306 + i0_375;
                                                                                                                int64_t t378 = t308 + i1_376;
                                                                                                                int64_t t379 = (int64_t)((uint64_t)t378 + (uint64_t)INT64_C(-1));
                                                                                                                int64_t t380 = INT64_C(0);
                                                                                                                int64_t t381 = t379;
                                                                                                                int64_t t382 = (t380 > t381) ? t380 : t381;
                                                                                                                int64_t t383 = INT64_C(127);
                                                                                                                int64_t t384 = t382;
                                                                                                                int64_t t385 = (t383 < t384) ? t383 : t384;
                                                                                                                int64_t t386 = t385;
                                                                                                                int64_t t387 = t386 + ((t386 >> 63) & b0_d1);
                                                                                                                int64_t t388 = INT64_C(0);
                                                                                                                int64_t t389 = t377;
                                                                                                                int64_t t390 = (t388 > t389) ? t388 : t389;
                                                                                                                int64_t t391 = INT64_C(95);
                                                                                                                int64_t t392 = t390;
                                                                                                                int64_t t393 = (t391 < t392) ? t391 : t392;
                                                                                                                int64_t t394 = t393;
                                                                                                                int64_t t395 = t394 + ((t394 >> 63) & b0_d0);
                                                                                                                int64_t t396 = t387 * b0_s1 + t395 * b0_s0;
                                                                                                                uint8_t t397 = b0[t396];
                                                                                                                int64_t t398 = (int64_t)t397;
                                                                                                                int64_t t399 = (int64_t)(uint32_t)(t398);
                                                                                                                int64_t t400 = (int64_t)((uint64_t)t378 + (uint64_t)INT64_C(1));
                                                                                                                int64_t t401 = INT64_C(0);
                                                                                                                int64_t t402 = t400;
                                                                                                                int64_t t403 = (t401 > t402) ? t401 : t402;
                                                                                                                int64_t t404 = INT64_C(127);
                                                                                                                int64_t t405 = t403;
                                                                                                                int64_t t406 = (t404 < t405) ? t404 : t405;
                                                                                                                int64_t t407 = t406;
                                                                                                                int64_t t408 = t407 + ((t407 >> 63) & b0_d1);
                                                                                                                int64_t t409 = INT64_C(0);
                                                                                                                int64_t t410 = t377;
                                                                                                                int64_t t411 = (t409 > t410) ? t409 : t410;
                                                                                                                int64_t t412 = INT64_C(95);
                                                                                                                int64_t t413 = t411;
                                                                                                                int64_t t414 = (t412 < t413) ? t412 : t413;
                                                                                                                int64_t t415 = t414;
                                                                                                                int64_t t416 = t415 + ((t415 >> 63) & b0_d0);
                                                                                                                int64_t t417 = t408 * b0_s1 + t416 * b0_s0;
                                                                                                                uint8_t t418 = b0[t417];
                                                                                                                int64_t t419 = (int64_t)t418;
                                                                                                                int64_t t420 = (int64_t)(uint32_t)(t419);
                                                                                                                int64_t t421 = (int64_t)((uint64_t)t399 + (uint64_t)t420);
                                                                                                                int64_t t422 = INT64_C(0);
                                                                                                                int64_t t423 = t378;
                                                                                                                int64_t t424 = (t422 > t423) ? t422 : t423;
                                                                                                                int64_t t425 = INT64_C(127);
                                                                                                                int64_t t426 = t424;
                                                                                                                int64_t t427 = (t425 < t426) ? t425 : t426;
                                                                                                                int64_t t428 = t427;
                                                                                                                int64_t t429 = t428 + ((t428 >> 63) & b0_d1);
                                                                                                                int64_t t430 = INT64_C(0);
                                                                                                                int64_t t431 = t377;
                                                                                                                int64_t t432 = (t430 > t431) ? t430 : t431;
                                                                                                                int64_t t433 = INT64_C(95);
                                                                                                                int64_t t434 = t432;
                                                                                                                int64_t t435 = (t433 < t434) ? t433 : t434;
                                                                                                                int64_t t436 = t435;
                                                                                                                int64_t t437 = t436 + ((t436 >> 63) & b0_d0);
                                                                                                                int64_t t438 = t429 * b0_s1 + t437 * b0_s0;
                                                                                                                uint8_t t439 = b0[t438];
                                                                                                                int64_t t440 = (int64_t)t439;
                                                                                                                int64_t t441 = (int64_t)(uint32_t)(t440);
                                                                                                                int64_t t442 = (int64_t)((uint64_t)t421 + (uint64_t)t441);
                                                                                                                int64_t t443 = (t442) >> ((INT64_C(1)) & 63);
                                                                                                                int64_t t444 = (int64_t)(uint8_t)(t443);
                                                                                                                int64_t t445 = (int64_t)(uint8_t)(t444);
                                                                                                                int64_t t446 = (t297 + i0_375) * t64 + (t300 + i1_376) * t63;
                                                                                                                a_bx_scratch_0[t446] = (uint8_t)(t445);
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                            { /* store interior */
                                                                                                int64_t t447 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                                                                int64_t t448 = t447;
                                                                                                int64_t t449 = (int64_t)((uint64_t)v_s0_p_ilo1 - (uint64_t)v_s1_ox);
                                                                                                int64_t t450 = t449;
                                                                                                int64_t t451 = (int64_t)((uint64_t)v_s0_p_hi0 - (uint64_t)v_s0_co0);
                                                                                                int64_t t452 = (int64_t)((uint64_t)t451 + (uint64_t)INT64_C(1));
                                                                                                int64_t t453 = t452;
                                                                                                int64_t t454 = (int64_t)((uint64_t)v_s0_p_ihi1 - (uint64_t)v_s0_p_ilo1);
                                                                                                int64_t t455 = (int64_t)((uint64_t)t454 + (uint64_t)INT64_C(1));
                                                                                                int64_t t456 = t455;
                                                                                                int64_t t457 = v_s0_co0;
                                                                                                int64_t t458 = v_s0_p_ilo1;
                                                                                                if (t453 > 0 && t456 > 0) {
                                                                                                    if ((t458 + INT64_C(-1)) < -b0_d1 || ((t458 + t456 - 1) + INT64_C(-1)) >= b0_d1) { return 4; }
                                                                                                    if (t457 < -b0_d0 || (t457 + t453 - 1) >= b0_d0) { return 4; }
                                                                                                    if ((t458 + INT64_C(1)) < -b0_d1 || ((t458 + t456 - 1) + INT64_C(1)) >= b0_d1) { return 4; }
                                                                                                    if (t458 < -b0_d1 || (t458 + t456 - 1) >= b0_d1) { return 4; }
                                                                                                    if ((t458 + INT64_C(-1)) >= 0 && t457 >= 0 && (t458 + INT64_C(1)) >= 0 && t458 >= 0) {
                                                                                                        int64_t t459 = t61 == t456 && b0_d1 == t456;
                                                                                                        int64_t t460 = t459 ? INT64_C(1) : t453;
                                                                                                        int64_t t461 = t459 ? t453 * t456 : t456;
                                                                                                        for (int64_t i0_462 = 0; i0_462 < t460; ++i0_462) {
                                                                                                            #pragma omp simd
                                                                                                            for (int64_t i1_463 = 0; i1_463 < t461; ++i1_463) {
                                                                                                                int64_t t464 = t457 + i0_462;
                                                                                                                int64_t t465 = t458 + i1_463;
                                                                                                                int64_t t466 = (int64_t)((uint64_t)t465 + (uint64_t)INT64_C(-1));
                                                                                                                int64_t t467 = t466;
                                                                                                                int64_t t468 = t464;
                                                                                                                int64_t t469 = t467 * b0_s1 + t468 * b0_s0;
                                                                                                                uint8_t t470 = b0[t469];
                                                                                                                int64_t t471 = (int64_t)t470;
                                                                                                                int64_t t472 = (int64_t)(uint32_t)(t471);
                                                                                                                int64_t t473 = (int64_t)((uint64_t)t465 + (uint64_t)INT64_C(1));
                                                                                                                int64_t t474 = t473;
                                                                                                                int64_t t475 = t464;
                                                                                                                int64_t t476 = t474 * b0_s1 + t475 * b0_s0;
                                                                                                                uint8_t t477 = b0[t476];
                                                                                                                int64_t t478 = (int64_t)t477;
                                                                                                                int64_t t479 = (int64_t)(uint32_t)(t478);
                                                                                                                int64_t t480 = (int64_t)((uint64_t)t472 + (uint64_t)t479);
                                                                                                                int64_t t481 = t465;
                                                                                                                int64_t t482 = t464;
                                                                                                                int64_t t483 = t481 * b0_s1 + t482 * b0_s0;
                                                                                                                uint8_t t484 = b0[t483];
                                                                                                                int64_t t485 = (int64_t)t484;
                                                                                                                int64_t t486 = (int64_t)(uint32_t)(t485);
                                                                                                                int64_t t487 = (int64_t)((uint64_t)t480 + (uint64_t)t486);
                                                                                                                int64_t t488 = (t487) >> ((INT64_C(1)) & 63);
                                                                                                                int64_t t489 = (int64_t)(uint8_t)(t488);
                                                                                                                int64_t t490 = (int64_t)(uint8_t)(t489);
                                                                                                                int64_t t491 = (t448 + i0_462) * t64 + (t450 + i1_463) * t63;
                                                                                                                a_bx_scratch_0[t491] = (uint8_t)(t490);
                                                                                                            }
                                                                                                        }
                                                                                                    } else {
                                                                                                        for (int64_t i0_492 = 0; i0_492 < t453; ++i0_492) {
                                                                                                            #pragma omp simd
                                                                                                            for (int64_t i1_493 = 0; i1_493 < t456; ++i1_493) {
                                                                                                                int64_t t494 = t457 + i0_492;
                                                                                                                int64_t t495 = t458 + i1_493;
                                                                                                                int64_t t496 = (int64_t)((uint64_t)t495 + (uint64_t)INT64_C(-1));
                                                                                                                int64_t t497 = t496;
                                                                                                                int64_t t498 = t497 + ((t497 >> 63) & b0_d1);
                                                                                                                int64_t t499 = t494;
                                                                                                                int64_t t500 = t499 + ((t499 >> 63) & b0_d0);
                                                                                                                int64_t t501 = t498 * b0_s1 + t500 * b0_s0;
                                                                                                                uint8_t t502 = b0[t501];
                                                                                                                int64_t t503 = (int64_t)t502;
                                                                                                                int64_t t504 = (int64_t)(uint32_t)(t503);
                                                                                                                int64_t t505 = (int64_t)((uint64_t)t495 + (uint64_t)INT64_C(1));
                                                                                                                int64_t t506 = t505;
                                                                                                                int64_t t507 = t506 + ((t506 >> 63) & b0_d1);
                                                                                                                int64_t t508 = t494;
                                                                                                                int64_t t509 = t508 + ((t508 >> 63) & b0_d0);
                                                                                                                int64_t t510 = t507 * b0_s1 + t509 * b0_s0;
                                                                                                                uint8_t t511 = b0[t510];
                                                                                                                int64_t t512 = (int64_t)t511;
                                                                                                                int64_t t513 = (int64_t)(uint32_t)(t512);
                                                                                                                int64_t t514 = (int64_t)((uint64_t)t504 + (uint64_t)t513);
                                                                                                                int64_t t515 = t495;
                                                                                                                int64_t t516 = t515 + ((t515 >> 63) & b0_d1);
                                                                                                                int64_t t517 = t494;
                                                                                                                int64_t t518 = t517 + ((t517 >> 63) & b0_d0);
                                                                                                                int64_t t519 = t516 * b0_s1 + t518 * b0_s0;
                                                                                                                uint8_t t520 = b0[t519];
                                                                                                                int64_t t521 = (int64_t)t520;
                                                                                                                int64_t t522 = (int64_t)(uint32_t)(t521);
                                                                                                                int64_t t523 = (int64_t)((uint64_t)t514 + (uint64_t)t522);
                                                                                                                int64_t t524 = (t523) >> ((INT64_C(1)) & 63);
                                                                                                                int64_t t525 = (int64_t)(uint8_t)(t524);
                                                                                                                int64_t t526 = (int64_t)(uint8_t)(t525);
                                                                                                                int64_t t527 = (t448 + i0_492) * t64 + (t450 + i1_493) * t63;
                                                                                                                a_bx_scratch_0[t527] = (uint8_t)(t526);
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                        }
                                                                                        { /* pad_edge bx.scratch#0 */
                                                                                            int64_t t528 = v_s0_coff0;
                                                                                            int64_t t529 = v_s0_coff1;
                                                                                            int64_t t530 = v_s0_ce0;
                                                                                            int64_t t531 = v_s0_ce1;
                                                                                            int64_t t532 = t528 + t530;
                                                                                            if (t528 > 0) {
                                                                                                {
                                                                                                    for (int64_t p0 = 0; p0 < t528; ++p0) {
                                                                                                        for (int64_t p1 = 0; p1 < t61; ++p1) {
                                                                                                            int64_t t533 = p0 * t64 + p1 * t63;
                                                                                                            int64_t t534 = t528 * t64 + p1 * t63;
                                                                                                            a_bx_scratch_0[t533] = a_bx_scratch_0[t534];
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                            if (t60 > t532) {
                                                                                                {
                                                                                                    for (int64_t p0_535 = t532; p0_535 < t60; ++p0_535) {
                                                                                                        for (int64_t p1_536 = 0; p1_536 < t61; ++p1_536) {
                                                                                                            int64_t t537 = p0_535 * t64 + p1_536 * t63;
                                                                                                            int64_t t538 = (t532 - 1) * t64 + p1_536 * t63;
                                                                                                            a_bx_scratch_0[t537] = a_bx_scratch_0[t538];
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                            int64_t t539 = t529 + t531;
                                                                                            if (t529 > 0) {
                                                                                                {
                                                                                                    for (int64_t p0_540 = 0; p0_540 < t60; ++p0_540) {
                                                                                                        for (int64_t p1_541 = 0; p1_541 < t529; ++p1_541) {
                                                                                                            int64_t t542 = p0_540 * t64 + p1_541 * t63;
                                                                                                            int64_t t543 = p0_540 * t64 + t529 * t63;
                                                                                                            a_bx_scratch_0[t542] = a_bx_scratch_0[t543];
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                            if (t61 > t539) {
                                                                                                {
                                                                                                    for (int64_t p0_544 = 0; p0_544 < t60; ++p0_544) {
                                                                                                        for (int64_t p1_545 = t539; p1_545 < t61; ++p1_545) {
                                                                                                            int64_t t546 = p0_544 * t64 + p1_545 * t63;
                                                                                                            int64_t t547 = p0_544 * t64 + (t539 - 1) * t63;
                                                                                                            a_bx_scratch_0[t546] = a_bx_scratch_0[t547];
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                        }
                                                                                        /* consume bx */
                                                                                        { /* store consume */
                                                                                            int64_t t548 = v_s1_oy;
                                                                                            int64_t t549 = v_s1_ox;
                                                                                            int64_t t550 = v_s1_ey;
                                                                                            int64_t t551 = v_s1_ex;
                                                                                            int64_t t552 = INT64_C(0);
                                                                                            int64_t t553 = INT64_C(0);
                                                                                            if (t550 > 0 && t551 > 0) {
                                                                                                if (t553 < -t61 || (t553 + t551 - 1) >= t61) { return 4; }
                                                                                                if ((t552 + INT64_C(1)) < -t60 || ((t552 + t550 - 1) + INT64_C(1)) >= t60) { return 4; }
                                                                                                if ((t552 + INT64_C(2)) < -t60 || ((t552 + t550 - 1) + INT64_C(2)) >= t60) { return 4; }
                                                                                                if (t552 < -t60 || (t552 + t550 - 1) >= t60) { return 4; }
                                                                                                if (t553 >= 0 && (t552 + INT64_C(1)) >= 0 && (t552 + INT64_C(2)) >= 0 && t552 >= 0) {
                                                                                                    int64_t t554 = b1_d1 == t551 && t61 == t551;
                                                                                                    int64_t t555 = t554 ? INT64_C(1) : t550;
                                                                                                    int64_t t556 = t554 ? t550 * t551 : t551;
                                                                                                    for (int64_t i0_557 = 0; i0_557 < t555; ++i0_557) {
                                                                                                        #pragma omp simd
                                                                                                        for (int64_t i1_558 = 0; i1_558 < t556; ++i1_558) {
                                                                                                            int64_t t559 = t552 + i0_557;
                                                                                                            int64_t t560 = t553 + i1_558;
                                                                                                            int64_t t561 = t560;
                                                                                                            int64_t t562 = (int64_t)((uint64_t)t559 + (uint64_t)INT64_C(1));
                                                                                                            int64_t t563 = t562;
                                                                                                            int64_t t564 = t561 * t63 + t563 * t64;
                                                                                                            uint8_t t565 = a_bx_scratch_0[t564];
                                                                                                            int64_t t566 = (int64_t)t565;
                                                                                                            int64_t t567 = (int64_t)(uint32_t)(t566);
                                                                                                            int64_t t568 = t560;
                                                                                                            int64_t t569 = (int64_t)((uint64_t)t559 + (uint64_t)INT64_C(2));
                                                                                                            int64_t t570 = t569;
                                                                                                            int64_t t571 = t568 * t63 + t570 * t64;
                                                                                                            uint8_t t572 = a_bx_scratch_0[t571];
                                                                                                            int64_t t573 = (int64_t)t572;
                                                                                                            int64_t t574 = (int64_t)(uint32_t)(t573);
                                                                                                            int64_t t575 = (int64_t)((uint64_t)t567 + (uint64_t)t574);
                                                                                                            int64_t t576 = t560;
                                                                                                            int64_t t577 = t559;
                                                                                                            int64_t t578 = t576 * t63 + t577 * t64;
                                                                                                            uint8_t t579 = a_bx_scratch_0[t578];
                                                                                                            int64_t t580 = (int64_t)t579;
                                                                                                            int64_t t581 = (int64_t)(uint32_t)(t580);
                                                                                                            int64_t t582 = (int64_t)((uint64_t)t575 + (uint64_t)t581);
                                                                                                            int64_t t583 = (t582) >> ((INT64_C(1)) & 63);
                                                                                                            int64_t t584 = (int64_t)(uint8_t)(t583);
                                                                                                            int64_t t585 = (int64_t)(uint8_t)(t584);
                                                                                                            int64_t t586 = (t548 + i0_557) * b1_s0 + (t549 + i1_558) * b1_s1;
                                                                                                            b1[t586] = (uint8_t)(t585);
                                                                                                        }
                                                                                                    }
                                                                                                } else {
                                                                                                    for (int64_t i0_587 = 0; i0_587 < t550; ++i0_587) {
                                                                                                        #pragma omp simd
                                                                                                        for (int64_t i1_588 = 0; i1_588 < t551; ++i1_588) {
                                                                                                            int64_t t589 = t552 + i0_587;
                                                                                                            int64_t t590 = t553 + i1_588;
                                                                                                            int64_t t591 = t590;
                                                                                                            int64_t t592 = t591 + ((t591 >> 63) & t61);
                                                                                                            int64_t t593 = (int64_t)((uint64_t)t589 + (uint64_t)INT64_C(1));
                                                                                                            int64_t t594 = t593;
                                                                                                            int64_t t595 = t594 + ((t594 >> 63) & t60);
                                                                                                            int64_t t596 = t592 * t63 + t595 * t64;
                                                                                                            uint8_t t597 = a_bx_scratch_0[t596];
                                                                                                            int64_t t598 = (int64_t)t597;
                                                                                                            int64_t t599 = (int64_t)(uint32_t)(t598);
                                                                                                            int64_t t600 = t590;
                                                                                                            int64_t t601 = t600 + ((t600 >> 63) & t61);
                                                                                                            int64_t t602 = (int64_t)((uint64_t)t589 + (uint64_t)INT64_C(2));
                                                                                                            int64_t t603 = t602;
                                                                                                            int64_t t604 = t603 + ((t603 >> 63) & t60);
                                                                                                            int64_t t605 = t601 * t63 + t604 * t64;
                                                                                                            uint8_t t606 = a_bx_scratch_0[t605];
                                                                                                            int64_t t607 = (int64_t)t606;
                                                                                                            int64_t t608 = (int64_t)(uint32_t)(t607);
                                                                                                            int64_t t609 = (int64_t)((uint64_t)t599 + (uint64_t)t608);
                                                                                                            int64_t t610 = t590;
                                                                                                            int64_t t611 = t610 + ((t610 >> 63) & t61);
                                                                                                            int64_t t612 = t589;
                                                                                                            int64_t t613 = t612 + ((t612 >> 63) & t60);
                                                                                                            int64_t t614 = t611 * t63 + t613 * t64;
                                                                                                            uint8_t t615 = a_bx_scratch_0[t614];
                                                                                                            int64_t t616 = (int64_t)t615;
                                                                                                            int64_t t617 = (int64_t)(uint32_t)(t616);
                                                                                                            int64_t t618 = (int64_t)((uint64_t)t609 + (uint64_t)t617);
                                                                                                            int64_t t619 = (t618) >> ((INT64_C(1)) & 63);
                                                                                                            int64_t t620 = (int64_t)(uint8_t)(t619);
                                                                                                            int64_t t621 = (int64_t)(uint8_t)(t620);
                                                                                                            int64_t t622 = (t548 + i0_587) * b1_s0 + (t549 + i1_588) * b1_s1;
                                                                                                            b1[t622] = (uint8_t)(t621);
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                        }
                                                                                        free(a_bx_scratch_0);
                                                                                    }
                                                                                }
                                                                            }
                                                                        }
                                                                    }
                                                                }
                                                            }
                                                        }
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return 0;
}
