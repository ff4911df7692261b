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
                                                                                                            for (int64_t i0 = 0; i0 < t79; ++i0) {
                                                                                                                int64_t iv = 0;
                                                                                                                for (; iv + 8 <= t80; iv += 8) {
                                                                                                                    #pragma GCC ivdep
                                                                                                                    for (int64_t lane = 0; lane < 8; ++lane) {
                                                                                                                        int64_t t83 = iv + lane;
                                                                                                                        int64_t t84 = t81 + i0;
                                                                                                                        int64_t t85 = t82 + t83;
                                                                                                                        int64_t t86 = (int64_t)((uint64_t)t85 + (uint64_t)INT64_C(-1));
                                                                                                                        int64_t t87 = t86;
                                                                                                                        int64_t t88 = t87 + ((t87 >> 63) & b0_d1);
                                                                                                                        int64_t t89 = t84;
                                                                                                                        int64_t t90 = t89 + ((t89 >> 63) & b0_d0);
                                                                                                                        int64_t t91 = t88 * b0_s1 + t90 * b0_s0;
                                                                                                                        uint8_t t92 = b0[t91];
                                                                                                                        int64_t t93 = (int64_t)t92;
                                                                                                                        int64_t t94 = (int64_t)(uint32_t)(t93);
                                                                                                                        int64_t t95 = (int64_t)((uint64_t)t85 + (uint64_t)INT64_C(1));
                                                                                                                        int64_t t96 = t95;
                                                                                                                        int64_t t97 = t96 + ((t96 >> 63) & b0_d1);
                                                                                                                        int64_t t98 = t84;
                                                                                                                        int64_t t99 = t98 + ((t98 >> 63) & b0_d0);
                                                                                                                        int64_t t100 = t97 * b0_s1 + t99 * b0_s0;
                                                                                                                        uint8_t t101 = b0[t100];
                                                                                                                        int64_t t102 = (int64_t)t101;
                                                                                                                        int64_t t103 = (int64_t)(uint32_t)(t102);
                                                                                                                        int64_t t104 = (int64_t)((uint64_t)t94 + (uint64_t)t103);
                                                                                                                        int64_t t105 = t85;
                                                                                                                        int64_t t106 = t105 + ((t105 >> 63) & b0_d1);
                                                                                                                        int64_t t107 = t84;
                                                                                                                        int64_t t108 = t107 + ((t107 >> 63) & b0_d0);
                                                                                                                        int64_t t109 = t106 * b0_s1 + t108 * b0_s0;
                                                                                                                        uint8_t t110 = b0[t109];
                                                                                                                        int64_t t111 = (int64_t)t110;
                                                                                                                        int64_t t112 = (int64_t)(uint32_t)(t111);
                                                                                                                        int64_t t113 = (int64_t)((uint64_t)t104 + (uint64_t)t112);
                                                                                                                        int64_t t114 = (t113) >> ((INT64_C(1)) & 63);
                                                                                                                        int64_t t115 = (int64_t)(uint8_t)(t114);
                                                                                                                        int64_t t116 = (int64_t)(uint8_t)(t115);
                                                                                                                        int64_t t117 = (t76 + i0) * t67 + (t78 + t83) * t66;
                                                                                                                        a_bx_scratch_0[t117] = (uint8_t)(t116);
                                                                                                                    }
                                                                                                                }
                                                                                                                for (int64_t tail = iv; tail < t80; ++tail) {
                                                                                                                    int64_t t118 = t81 + i0;
                                                                                                                    int64_t t119 = t82 + tail;
                                                                                                                    int64_t t120 = (int64_t)((uint64_t)t119 + (uint64_t)INT64_C(-1));
                                                                                                                    int64_t t121 = t120;
                                                                                                                    int64_t t122 = t121 + ((t121 >> 63) & b0_d1);
                                                                                                                    int64_t t123 = t118;
                                                                                                                    int64_t t124 = t123 + ((t123 >> 63) & b0_d0);
                                                                                                                    int64_t t125 = t122 * b0_s1 + t124 * b0_s0;
                                                                                                                    uint8_t t126 = b0[t125];
                                                                                                                    int64_t t127 = (int64_t)t126;
                                                                                                                    int64_t t128 = (int64_t)(uint32_t)(t127);
                                                                                                                    int64_t t129 = (int64_t)((uint64_t)t119 + (uint64_t)INT64_C(1));
                                                                                                                    int64_t t130 = t129;
                                                                                                                    int64_t t131 = t130 + ((t130 >> 63) & b0_d1);
                                                                                                                    int64_t t132 = t118;
                                                                                                                    int64_t t133 = t132 + ((t132 >> 63) & b0_d0);
                                                                                                                    int64_t t134 = t131 * b0_s1 + t133 * b0_s0;
                                                                                                                    uint8_t t135 = b0[t134];
                                                                                                                    int64_t t136 = (int64_t)t135;
                                                                                                                    int64_t t137 = (int64_t)(uint32_t)(t136);
                                                                                                                    int64_t t138 = (int64_t)((uint64_t)t128 + (uint64_t)t137);
                                                                                                                    int64_t t139 = t119;
                                                                                                                    int64_t t140 = t139 + ((t139 >> 63) & b0_d1);
                                                                                                                    int64_t t141 = t118;
                                                                                                                    int64_t t142 = t141 + ((t141 >> 63) & b0_d0);
                                                                                                                    int64_t t143 = t140 * b0_s1 + t142 * b0_s0;
                                                                                                                    uint8_t t144 = b0[t143];
                                                                                                                    int64_t t145 = (int64_t)t144;
                                                                                                                    int64_t t146 = (int64_t)(uint32_t)(t145);
                                                                                                                    int64_t t147 = (int64_t)((uint64_t)t138 + (uint64_t)t146);
                                                                                                                    int64_t t148 = (t147) >> ((INT64_C(1)) & 63);
                                                                                                                    int64_t t149 = (int64_t)(uint8_t)(t148);
                                                                                                                    int64_t t150 = (int64_t)(uint8_t)(t149);
                                                                                                                    int64_t t151 = (t76 + i0) * t67 + (t78 + tail) * t66;
                                                                                                                    a_bx_scratch_0[t151] = (uint8_t)(t150);
                                                                                                                }
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                } else {
                                                                                                    { /* store border-lo1 */
                                                                                                        int64_t t152 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                                                                        int64_t t153 = t152;
                                                                                                        int64_t t154 = (int64_t)((uint64_t)v_s0_co1 - (uint64_t)v_s1_ox);
                                                                                                        int64_t t155 = t154;
                                                                                                        int64_t t156 = (int64_t)((uint64_t)v_s0_p_hi0 - (uint64_t)v_s0_co0);
                                                                                                        int64_t t157 = (int64_t)((uint64_t)t156 + (uint64_t)INT64_C(1));
                                                                                                        int64_t t158 = t157;
                                                                                                        int64_t t159 = (int64_t)((uint64_t)v_s0_p_ilo1 - (uint64_t)v_s0_co1);
                                                                                                        int64_t t160 = t159;
                                                                                                        int64_t t161 = v_s0_co0;
                                                                                                        int64_t t162 = v_s0_co1;
                                                                                                        if (t158 > 0 && t160 > 0) {
                                                                                                            if (((INT64_C(127)) < (((INT64_C(0)) > ((t162 + INT64_C(-1))) ? (INT64_C(0)) : ((t162 + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t162 + INT64_C(-1))) ? (INT64_C(0)) : ((t162 + INT64_C(-1)))))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > (((t162 + t160 - 1) + INT64_C(-1))) ? (INT64_C(0)) : (((t162 + t160 - 1) + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > (((t162 + t160 - 1) + INT64_C(-1))) ? (INT64_C(0)) : (((t162 + t160 - 1) + INT64_C(-1)))))) >= b0_d1) { return 4; }
                                                                                                            if (((INT64_C(95)) < (((INT64_C(0)) > (t161) ? (INT64_C(0)) : (t161))) ? (INT64_C(95)) : (((INT64_C(0)) > (t161) ? (INT64_C(0)) : (t161)))) < -b0_d0 || ((INT64_C(95)) < (((INT64_C(0)) > ((t161 + t158 - 1)) ? (INT64_C(0)) : ((t161 + t158 - 1)))) ? (INT64_C(95)) : (((INT64_C(0)) > ((t161 + t158 - 1)) ? (INT64_C(0)) : ((t161 + t158 - 1))))) >= b0_d0) { return 4; }
                                                                                                            if (((INT64_C(127)) < (((INT64_C(0)) > ((t162 + INT64_C(1))) ? (INT64_C(0)) : ((t162 + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t162 + INT64_C(1))) ? (INT64_C(0)) : ((t162 + INT64_C(1)))))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > (((t162 + t160 - 1) + INT64_C(1))) ? (INT64_C(0)) : (((t162 + t160 - 1) + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > (((t162 + t160 - 1) + INT64_C(1))) ? (INT64_C(0)) : (((t162 + t160 - 1) + INT64_C(1)))))) >= b0_d1) { return 4; }
                                                                                                            if (((INT64_C(127)) < (((INT64_C(0)) > (t162) ? (INT64_C(0)) : (t162))) ? (INT64_C(127)) : (((INT64_C(0)) > (t162) ? (INT64_C(0)) : (t162)))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > ((t162 + t160 - 1)) ? (INT64_C(0)) : ((t162 + t160 - 1)))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t162 + t160 - 1)) ? (INT64_C(0)) : ((t162 + t160 - 1))))) >= b0_d1) { return 4; }
                                                                                                            for (int64_t i0_163 = 0; i0_163 < t158; ++i0_163) {
                                                                                                                int64_t iv_164 = 0;
                                                                                                                for (; iv_164 + 8 <= t160; iv_164 += 8) {
                                                                                                                    #pragma GCC ivdep
                                                                                                                    for (int64_t lane_165 = 0; lane_165 < 8; ++lane_165) {
                                                                                                                        int64_t t166 = iv_164 + lane_165;
                                                                                                                        int64_t t167 = t161 + i0_163;
                                                                                                                        int64_t t168 = t162 + t166;
                                                                                                                        int64_t t169 = (int64_t)((uint64_t)t168 + (uint64_t)INT64_C(-1));
                                                                                                                        int64_t t170 = INT64_C(0);
                                                                                                                        int64_t t171 = t169;
                                                                                                                        int64_t t172 = (t170 > t171) ? t170 : t171;
                                                                                                                        int64_t t173 = INT64_C(127);
                                                                                                                        int64_t t174 = t172;
                                                                                                                        int64_t t175 = (t173 < t174) ? t173 : t174;
                                                                                                                        int64_t t176 = t175;
                                                                                                                        int64_t t177 = t176 + ((t176 >> 63) & b0_d1);
                                                                                                                        int64_t t178 = INT64_C(0);
                                                                                                                        int64_t t179 = t167;
                                                                                                                        int64_t t180 = (t178 > t179) ? t178 : t179;
                                                                                                                        int64_t t181 = INT64_C(95);
                                                                                                                        int64_t t182 = t180;
                                                                                                                        int64_t t183 = (t181 < t182) ? t181 : t182;
                                                                                                                        int64_t t184 = t183;
                                                                                                                        int64_t t185 = t184 + ((t184 >> 63) & b0_d0);
                                                                                                                        int64_t t186 = t177 * b0_s1 + t185 * b0_s0;
                                                                                                                        uint8_t t187 = b0[t186];
                                                                                                                        int64_t t188 = (int64_t)t187;
                                                                                                                        int64_t t189 = (int64_t)(uint32_t)(t188);
                                                                                                                        int64_t t190 = (int64_t)((uint64_t)t168 + (uint64_t)INT64_C(1));
                                                                                                                        int64_t t191 = INT64_C(0);
                                                                                                                        int64_t t192 = t190;
                                                                                                                        int64_t t193 = (t191 > t192) ? t191 : t192;
                                                                                                                        int64_t t194 = INT64_C(127);
                                                                                                                        int64_t t195 = t193;
                                                                                                                        int64_t t196 = (t194 < t195) ? t194 : t195;
                                                                                                                        int64_t t197 = t196;
                                                                                                                        int64_t t198 = t197 + ((t197 >> 63) & b0_d1);
                                                                                                                        int64_t t199 = INT64_C(0);
                                                                                                                        int64_t t200 = t167;
                                                                                                                        int64_t t201 = (t199 > t200) ? t199 : t200;
                                                                                                                        int64_t t202 = INT64_C(95);
                                                                                                                        int64_t t203 = t201;
                                                                                                                        int64_t t204 = (t202 < t203) ? t202 : t203;
                                                                                                                        int64_t t205 = t204;
                                                                                                                        int64_t t206 = t205 + ((t205 >> 63) & b0_d0);
                                                                                                                        int64_t t207 = t198 * b0_s1 + t206 * b0_s0;
                                                                                                                        uint8_t t208 = b0[t207];
                                                                                                                        int64_t t209 = (int64_t)t208;
                                                                                                                        int64_t t210 = (int64_t)(uint32_t)(t209);
                                                                                                                        int64_t t211 = (int64_t)((uint64_t)t189 + (uint64_t)t210);
                                                                                                                        int64_t t212 = INT64_C(0);
                                                                                                                        int64_t t213 = t168;
                                                                                                                        int64_t t214 = (t212 > t213) ? t212 : t213;
                                                                                                                        int64_t t215 = INT64_C(127);
                                                                                                                        int64_t t216 = t214;
                                                                                                                        int64_t t217 = (t215 < t216) ? t215 : t216;
                                                                                                                        int64_t t218 = t217;
                                                                                                                        int64_t t219 = t218 + ((t218 >> 63) & b0_d1);
                                                                                                                        int64_t t220 = INT64_C(0);
                                                                                                                        int64_t t221 = t167;
                                                                                                                        int64_t t222 = (t220 > t221) ? t220 : t221;
                                                                                                                        int64_t t223 = INT64_C(95);
                                                                                                                        int64_t t224 = t222;
                                                                                                                        int64_t t225 = (t223 < t224) ? t223 : t224;
                                                                                                                        int64_t t226 = t225;
                                                                                                                        int64_t t227 = t226 + ((t226 >> 63) & b0_d0);
                                                                                                                        int64_t t228 = t219 * b0_s1 + t227 * b0_s0;
                                                                                                                        uint8_t t229 = b0[t228];
                                                                                                                        int64_t t230 = (int64_t)t229;
                                                                                                                        int64_t t231 = (int64_t)(uint32_t)(t230);
                                                                                                                        int64_t t232 = (int64_t)((uint64_t)t211 + (uint64_t)t231);
                                                                                                                        int64_t t233 = (t232) >> ((INT64_C(1)) & 63);
                                                                                                                        int64_t t234 = (int64_t)(uint8_t)(t233);
                                                                                                                        int64_t t235 = (int64_t)(uint8_t)(t234);
                                                                                                                        int64_t t236 = (t153 + i0_163) * t67 + (t155 + t166) * t66;
                                                                                                                        a_bx_scratch_0[t236] = (uint8_t)(t235);
                                                                                                                    }
                                                                                                                }
                                                                                                                for (int64_t tail_237 = iv_164; tail_237 < t160; ++tail_237) {
                                                                                                                    int64_t t238 = t161 + i0_163;
                                                                                                                    int64_t t239 = t162 + tail_237;
                                                                                                                    int64_t t240 = (int64_t)((uint64_t)t239 + (uint64_t)INT64_C(-1));
                                                                                                                    int64_t t241 = INT64_C(0);
                                                                                                                    int64_t t242 = t240;
                                                                                                                    int64_t t243 = (t241 > t242) ? t241 : t242;
                                                                                                                    int64_t t244 = INT64_C(127);
                                                                                                                    int64_t t245 = t243;
                                                                                                                    int64_t t246 = (t244 < t245) ? t244 : t245;
                                                                                                                    int64_t t247 = t246;
                                                                                                                    int64_t t248 = t247 + ((t247 >> 63) & b0_d1);
                                                                                                                    int64_t t249 = INT64_C(0);
                                                                                                                    int64_t t250 = t238;
                                                                                                                    int64_t t251 = (t249 > t250) ? t249 : t250;
                                                                                                                    int64_t t252 = INT64_C(95);
                                                                                                                    int64_t t253 = t251;
                                                                                                                    int64_t t254 = (t252 < t253) ? t252 : t253;
                                                                                                                    int64_t t255 = t254;
                                                                                                                    int64_t t256 = t255 + ((t255 >> 63) & b0_d0);
                                                                                                                    int64_t t257 = t248 * b0_s1 + t256 * b0_s0;
                                                                                                                    uint8_t t258 = b0[t257];
                                                                                                                    int64_t t259 = (int64_t)t258;
                                                                                                                    int64_t t260 = (int64_t)(uint32_t)(t259);
                                                                                                                    int64_t t261 = (int64_t)((uint64_t)t239 + (uint64_t)INT64_C(1));
                                                                                                                    int64_t t262 = INT64_C(0);
                                                                                                                    int64_t t263 = t261;
                                                                                                                    int64_t t264 = (t262 > t263) ? t262 : t263;
                                                                                                                    int64_t t265 = INT64_C(127);
                                                                                                                    int64_t t266 = t264;
                                                                                                                    int64_t t267 = (t265 < t266) ? t265 : t266;
                                                                                                                    int64_t t268 = t267;
                                                                                                                    int64_t t269 = t268 + ((t268 >> 63) & b0_d1);
                                                                                                                    int64_t t270 = INT64_C(0);
                                                                                                                    int64_t t271 = t238;
                                                                                                                    int64_t t272 = (t270 > t271) ? t270 : t271;
                                                                                                                    int64_t t273 = INT64_C(95);
                                                                                                                    int64_t t274 = t272;
                                                                                                                    int64_t t275 = (t273 < t274) ? t273 : t274;
                                                                                                                    int64_t t276 = t275;
                                                                                                                    int64_t t277 = t276 + ((t276 >> 63) & b0_d0);
                                                                                                                    int64_t t278 = t269 * b0_s1 + t277 * b0_s0;
                                                                                                                    uint8_t t279 = b0[t278];
                                                                                                                    int64_t t280 = (int64_t)t279;
                                                                                                                    int64_t t281 = (int64_t)(uint32_t)(t280);
                                                                                                                    int64_t t282 = (int64_t)((uint64_t)t260 + (uint64_t)t281);
                                                                                                                    int64_t t283 = INT64_C(0);
                                                                                                                    int64_t t284 = t239;
                                                                                                                    int64_t t285 = (t283 > t284) ? t283 : t284;
                                                                                                                    int64_t t286 = INT64_C(127);
                                                                                                                    int64_t t287 = t285;
                                                                                                                    int64_t t288 = (t286 < t287) ? t286 : t287;
                                                                                                                    int64_t t289 = t288;
                                                                                                                    int64_t t290 = t289 + ((t289 >> 63) & b0_d1);
                                                                                                                    int64_t t291 = INT64_C(0);
                                                                                                                    int64_t t292 = t238;
                                                                                                                    int64_t t293 = (t291 > t292) ? t291 : t292;
                                                                                                                    int64_t t294 = INT64_C(95);
                                                                                                                    int64_t t295 = t293;
                                                                                                                    int64_t t296 = (t294 < t295) ? t294 : t295;
                                                                                                                    int64_t t297 = t296;
                                                                                                                    int64_t t298 = t297 + ((t297 >> 63) & b0_d0);
                                                                                                                    int64_t t299 = t290 * b0_s1 + t298 * b0_s0;
                                                                                                                    uint8_t t300 = b0[t299];
                                                                                                                    int64_t t301 = (int64_t)t300;
                                                                                                                    int64_t t302 = (int64_t)(uint32_t)(t301);
                                                                                                                    int64_t t303 = (int64_t)((uint64_t)t282 + (uint64_t)t302);
                                                                                                                    int64_t t304 = (t303) >> ((INT64_C(1)) & 63);
                                                                                                                    int64_t t305 = (int64_t)(uint8_t)(t304);
                                                                                                                    int64_t t306 = (int64_t)(uint8_t)(t305);
                                                                                                                    int64_t t307 = (t153 + i0_163) * t67 + (t155 + tail_237) * t66;
                                                                                                                    a_bx_scratch_0[t307] = (uint8_t)(t306);
                                                                                                                }
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                    { /* store border-hi1 */
                                                                                                        int64_t t308 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                                                                        int64_t t309 = t308;
                                                                                                        int64_t t310 = (int64_t)((uint64_t)v_s0_p_ihi1 + (uint64_t)INT64_C(1));
                                                                                                        int64_t t311 = (int64_t)((uint64_t)t310 - (uint64_t)v_s1_ox);
                                                                                                        int64_t t312 = t311;
                                                                                                        int64_t t313 = (int64_t)((uint64_t)v_s0_p_hi0 - (uint64_t)v_s0_co0);
                                                                                                        int64_t t314 = (int64_t)((uint64_t)t313 + (uint64_t)INT64_C(1));
                                                                                                        int64_t t315 = t314;
                                                                                                        int64_t t316 = (int64_t)((uint64_t)v_s0_p_hi1 - (uint64_t)v_s0_p_ihi1);
                                                                                                        int64_t t317 = t316;
                                                                                                        int64_t t318 = v_s0_co0;
                                                                                                        int64_t t319 = (int64_t)((uint64_t)v_s0_p_ihi1 + (uint64_t)INT64_C(1));
                                                                                                        int64_t t320 = t319;
                                                                                                        if (t315 > 0 && t317 > 0) {
                                                                                                            if (((INT64_C(127)) < (((INT64_C(0)) > ((t320 + INT64_C(-1))) ? (INT64_C(0)) : ((t320 + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t320 + INT64_C(-1))) ? (INT64_C(0)) : ((t320 + INT64_C(-1)))))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > (((t320 + t317 - 1) + INT64_C(-1))) ? (INT64_C(0)) : (((t320 + t317 - 1) + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > (((t320 + t317 - 1) + INT64_C(-1))) ? (INT64_C(0)) : (((t320 + t317 - 1) + INT64_C(-1)))))) >= b0_d1) { return 4; }
                                                                                                            if (((INT64_C(95)) < (((INT64_C(0)) > (t318) ? (INT64_C(0)) : (t318))) ? (INT64_C(95)) : (((INT64_C(0)) > (t318) ? (INT64_C(0)) : (t318)))) < -b0_d0 || ((INT64_C(95)) < (((INT64_C(0)) > ((t318 + t315 - 1)) ? (INT64_C(0)) : ((t318 + t315 - 1)))) ? (INT64_C(95)) : (((INT64_C(0)) > ((t318 + t315 - 1)) ? (INT64_C(0)) : ((t318 + t315 - 1))))) >= b0_d0) { return 4; }
                                                                                                            if (((INT64_C(127)) < (((INT64_C(0)) > ((t320 + INT64_C(1))) ? (INT64_C(0)) : ((t320 + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t320 + INT64_C(1))) ? (INT64_C(0)) : ((t320 + INT64_C(1)))))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > (((t320 + t317 - 1) + INT64_C(1))) ? (INT64_C(0)) : (((t320 + t317 - 1) + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > (((t320 + t317 - 1) + INT64_C(1))) ? (INT64_C(0)) : (((t320 + t317 - 1) + INT64_C(1)))))) >= b0_d1) { return 4; }
                                                                                                            if (((INT64_C(127)) < (((INT64_C(0)) > (t320) ? (INT64_C(0)) : (t320))) ? (INT64_C(127)) : (((INT64_C(0)) > (t320) ? (INT64_C(0)) : (t320)))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > ((t320 + t317 - 1)) ? (INT64_C(0)) : ((t320 + t317 - 1)))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t320 + t317 - 1)) ? (INT64_C(0)) : ((t320 + t317 - 1))))) >= b0_d1) { return 4; }
                                                                                                            for (int64_t i0_321 = 0; i0_321 < t315; ++i0_321) {
                                                                                                                int64_t iv_322 = 0;
                                                                                                                for (; iv_322 + 8 <= t317; iv_322 += 8) {
                                                                                                                    #pragma GCC ivdep
                                                                                                                    for (int64_t lane_323 = 0; lane_323 < 8; ++lane_323) {
                                                                                                                        int64_t t324 = iv_322 + lane_323;
                                                                                                                        int64_t t325 = t318 + i0_321;
                                                                                                                        int64_t t326 = t320 + t324;
                                                                                                                        int64_t t327 = (int64_t)((uint64_t)t326 + (uint64_t)INT64_C(-1));
                                                                                                                        int64_t t328 = INT64_C(0);
                                                                                                                        int64_t t329 = t327;
                                                                                                                        int64_t t330 = (t328 > t329) ? t328 : t329;
                                                                                                                        int64_t t331 = INT64_C(127);
                                                                                                                        int64_t t332 = t330;
                                                                                                                        int64_t t333 = (t331 < t332) ? t331 : t332;
                                                                                                                        int64_t t334 = t333;
                                                                                                                        int64_t t335 = t334 + ((t334 >> 63) & b0_d1);
                                                                                                                        int64_t t336 = INT64_C(0);
                                                                                                                        int64_t t337 = t325;
                                                                                                                        int64_t t338 = (t336 > t337) ? t336 : t337;
                                                                                                                        int64_t t339 = INT64_C(95);
                                                                                                                        int64_t t340 = t338;
                                                                                                                        int64_t t341 = (t339 < t340) ? t339 : t340;
                                                                                                                        int64_t t342 = t341;
                                                                                                                        int64_t t343 = t342 + ((t342 >> 63) & b0_d0);
                                                                                                                        int64_t t344 = t335 * b0_s1 + t343 * b0_s0;
                                                                                                                        uint8_t t345 = b0[t344];
                                                                                                                        int64_t t346 = (int64_t)t345;
                                                                                                                        int64_t t347 = (int64_t)(uint32_t)(t346);
                                                                                                                        int64_t t348 = (int64_t)((uint64_t)t326 + (uint64_t)INT64_C(1));
                                                                                                                        int64_t t349 = INT64_C(0);
                                                                                                                        int64_t t350 = t348;
                                                                                                                        int64_t t351 = (t349 > t350) ? t349 : t350;
                                                                                                                        int64_t t352 = INT64_C(127);
                                                                                                                        int64_t t353 = t351;
                                                                                                                        int64_t t354 = (t352 < t353) ? t352 : t353;
                                                                                                                        int64_t t355 = t354;
                                                                                                                        int64_t t356 = t355 + ((t355 >> 63) & b0_d1);
                                                                                                                        int64_t t357 = INT64_C(0);
                                                                                                                        int64_t t358 = t325;
                                                                                                                        int64_t t359 = (t357 > t358) ? t357 : t358;
                                                                                                                        int64_t t360 = INT64_C(95);
                                                                                                                        int64_t t361 = t359;
                                                                                                                        int64_t t362 = (t360 < t361) ? t360 : t361;
                                                                                                                        int64_t t363 = t362;
                                                                                                                        int64_t t364 = t363 + ((t363 >> 63) & b0_d0);
                                                                                                                        int64_t t365 = t356 * b0_s1 + t364 * b0_s0;
                                                                                                                        uint8_t t366 = b0[t365];
                                                                                                                        int64_t t367 = (int64_t)t366;
                                                                                                                        int64_t t368 = (int64_t)(uint32_t)(t367);
                                                                                                                        int64_t t369 = (int64_t)((uint64_t)t347 + (uint64_t)t368);
                                                                                                                        int64_t t370 = INT64_C(0);
                                                                                                                        int64_t t371 = t326;
                                                                                                                        int64_t t372 = (t370 > t371) ? t370 : t371;
                                                                                                                        int64_t t373 = INT64_C(127);
                                                                                                                        int64_t t374 = t372;
                                                                                                                        int64_t t375 = (t373 < t374) ? t373 : t374;
                                                                                                                        int64_t t376 = t375;
                                                                                                                        int64_t t377 = t376 + ((t376 >> 63) & b0_d1);
                                                                                                                        int64_t t378 = INT64_C(0);
                                                                                                                        int64_t t379 = t325;
                                                                                                                        int64_t t380 = (t378 > t379) ? t378 : t379;
                                                                                                                        int64_t t381 = INT64_C(95);
                                                                                                                        int64_t t382 = t380;
                                                                                                                        int64_t t383 = (t381 < t382) ? t381 : t382;
                                                                                                                        int64_t t384 = t383;
                                                                                                                        int64_t t385 = t384 + ((t384 >> 63) & b0_d0);
                                                                                                                        int64_t t386 = t377 * b0_s1 + t385 * b0_s0;
                                                                                                                        uint8_t t387 = b0[t386];
                                                                                                                        int64_t t388 = (int64_t)t387;
                                                                                                                        int64_t t389 = (int64_t)(uint32_t)(t388);
                                                                                                                        int64_t t390 = (int64_t)((uint64_t)t369 + (uint64_t)t389);
                                                                                                                        int64_t t391 = (t390) >> ((INT64_C(1)) & 63);
                                                                                                                        int64_t t392 = (int64_t)(uint8_t)(t391);
                                                                                                                        int64_t t393 = (int64_t)(uint8_t)(t392);
                                                                                                                        int64_t t394 = (t309 + i0_321) * t67 + (t312 + t324) * t66;
                                                                                                                        a_bx_scratch_0[t394] = (uint8_t)(t393);
                                                                                                                    }
                                                                                                                }
                                                                                                                for (int64_t tail_395 = iv_322; tail_395 < t317; ++tail_395) {
                                                                                                                    int64_t t396 = t318 + i0_321;
                                                                                                                    int64_t t397 = t320 + tail_395;
                                                                                                                    int64_t t398 = (int64_t)((uint64_t)t397 + (uint64_t)INT64_C(-1));
                                                                                                                    int64_t t399 = INT64_C(0);
                                                                                                                    int64_t t400 = t398;
                                                                                                                    int64_t t401 = (t399 > t400) ? t399 : t400;
                                                                                                                    int64_t t402 = INT64_C(127);
                                                                                                                    int64_t t403 = t401;
                                                                                                                    int64_t t404 = (t402 < t403) ? t402 : t403;
                                                                                                                    int64_t t405 = t404;
                                                                                                                    int64_t t406 = t405 + ((t405 >> 63) & b0_d1);
                                                                                                                    int64_t t407 = INT64_C(0);
                                                                                                                    int64_t t408 = t396;
                                                                                                                    int64_t t409 = (t407 > t408) ? t407 : t408;
                                                                                                                    int64_t t410 = INT64_C(95);
                                                                                                                    int64_t t411 = t409;
                                                                                                                    int64_t t412 = (t410 < t411) ? t410 : t411;
                                                                                                                    int64_t t413 = t412;
                                                                                                                    int64_t t414 = t413 + ((t413 >> 63) & b0_d0);
                                                                                                                    int64_t t415 = t406 * b0_s1 + t414 * b0_s0;
                                                                                                                    uint8_t t416 = b0[t415];
                                                                                                                    int64_t t417 = (int64_t)t416;
                                                                                                                    int64_t t418 = (int64_t)(uint32_t)(t417);
                                                                                                                    int64_t t419 = (int64_t)((uint64_t)t397 + (uint64_t)INT64_C(1));
                                                                                                                    int64_t t420 = INT64_C(0);
                                                                                                                    int64_t t421 = t419;
                                                                                                                    int64_t t422 = (t420 > t421) ? t420 : t421;
                                                                                                                    int64_t t423 = INT64_C(127);
                                                                                                                    int64_t t424 = t422;
                                                                                                                    int64_t t425 = (t423 < t424) ? t423 : t424;
                                                                                                                    int64_t t426 = t425;
                                                                                                                    int64_t t427 = t426 + ((t426 >> 63) & b0_d1);
                                                                                                                    int64_t t428 = INT64_C(0);
                                                                                                                    int64_t t429 = t396;
                                                                                                                    int64_t t430 = (t428 > t429) ? t428 : t429;
                                                                                                                    int64_t t431 = INT64_C(95);
                                                                                                                    int64_t t432 = t430;
                                                                                                                    int64_t t433 = (t431 < t432) ? t431 : t432;
                                                                                                                    int64_t t434 = t433;
                                                                                                                    int64_t t435 = t434 + ((t434 >> 63) & b0_d0);
                                                                                                                    int64_t t436 = t427 * b0_s1 + t435 * b0_s0;
                                                                                                                    uint8_t t437 = b0[t436];
                                                                                                                    int64_t t438 = (int64_t)t437;
                                                                                                                    int64_t t439 = (int64_t)(uint32_t)(t438);
                                                                                                                    int64_t t440 = (int64_t)((uint64_t)t418 + (uint64_t)t439);
                                                                                                                    int64_t t441 = INT64_C(0);
                                                                                                                    int64_t t442 = t397;
                                                                                                                    int64_t t443 = (t441 > t442) ? t441 : t442;
                                                                                                                    int64_t t444 = INT64_C(127);
                                                                                                                    int64_t t445 = t443;
                                                                                                                    int64_t t446 = (t444 < t445) ? t444 : t445;
                                                                                                                    int64_t t447 = t446;
                                                                                                                    int64_t t448 = t447 + ((t447 >> 63) & b0_d1);
                                                                                                                    int64_t t449 = INT64_C(0);
                                                                                                                    int64_t t450 = t396;
                                                                                                                    int64_t t451 = (t449 > t450) ? t449 : t450;
                                                                                                                    int64_t t452 = INT64_C(95);
                                                                                                                    int64_t t453 = t451;
                                                                                                                    int64_t t454 = (t452 < t453) ? t452 : t453;
                                                                                                                    int64_t t455 = t454;
                                                                                                                    int64_t t456 = t455 + ((t455 >> 63) & b0_d0);
                                                                                                                    int64_t t457 = t448 * b0_s1 + t456 * b0_s0;
                                                                                                                    uint8_t t458 = b0[t457];
                                                                                                                    int64_t t459 = (int64_t)t458;
                                                                                                                    int64_t t460 = (int64_t)(uint32_t)(t459);
                                                                                                                    int64_t t461 = (int64_t)((uint64_t)t440 + (uint64_t)t460);
                                                                                                                    int64_t t462 = (t461) >> ((INT64_C(1)) & 63);
                                                                                                                    int64_t t463 = (int64_t)(uint8_t)(t462);
                                                                                                                    int64_t t464 = (int64_t)(uint8_t)(t463);
                                                                                                                    int64_t t465 = (t309 + i0_321) * t67 + (t312 + tail_395) * t66;
                                                                                                                    a_bx_scratch_0[t465] = (uint8_t)(t464);
                                                                                                                }
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                    { /* store interior */
                                                                                                        int64_t t466 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                                                                        int64_t t467 = t466;
                                                                                                        int64_t t468 = (int64_t)((uint64_t)v_s0_p_ilo1 - (uint64_t)v_s1_ox);
                                                                                                        int64_t t469 = t468;
                                                                                                        int64_t t470 = (int64_t)((uint64_t)v_s0_p_hi0 - (uint64_t)v_s0_co0);
                                                                                                        int64_t t471 = (int64_t)((uint64_t)t470 + (uint64_t)INT64_C(1));
                                                                                                        int64_t t472 = t471;
                                                                                                        int64_t t473 = (int64_t)((uint64_t)v_s0_p_ihi1 - (uint64_t)v_s0_p_ilo1);
                                                                                                        int64_t t474 = (int64_t)((uint64_t)t473 + (uint64_t)INT64_C(1));
                                                                                                        int64_t t475 = t474;
                                                                                                        int64_t t476 = v_s0_co0;
                                                                                                        int64_t t477 = v_s0_p_ilo1;
                                                                                                        if (t472 > 0 && t475 > 0) {
                                                                                                            if ((t477 + INT64_C(-1)) < -b0_d1 || ((t477 + t475 - 1) + INT64_C(-1)) >= b0_d1) { return 4; }
                                                                                                            if (t476 < -b0_d0 || (t476 + t472 - 1) >= b0_d0) { return 4; }
                                                                                                            if ((t477 + INT64_C(1)) < -b0_d1 || ((t477 + t475 - 1) + INT64_C(1)) >= b0_d1) { return 4; }
                                                                                                            if (t477 < -b0_d1 || (t477 + t475 - 1) >= b0_d1) { return 4; }
                                                                                                            for (int64_t i0_478 = 0; i0_478 < t472; ++i0_478) {
                                                                                                                int64_t iv_479 = 0;
                                                                                                                for (; iv_479 + 8 <= t475; iv_479 += 8) {
                                                                                                                    #pragma GCC ivdep
                                                                                                                    for (int64_t lane_480 = 0; lane_480 < 8; ++lane_480) {
                                                                                                                        int64_t t481 = iv_479 + lane_480;
                                                                                                                        int64_t t482 = t476 + i0_478;
                                                                                                                        int64_t t483 = t477 + t481;
                                                                                                                        int64_t t484 = (int64_t)((uint64_t)t483 + (uint64_t)INT64_C(-1));
                                                                                                                        int64_t t485 = t484;
                                                                                                                        int64_t t486 = t485 + ((t485 >> 63) & b0_d1);
                                                                                                                        int64_t t487 = t482;
                                                                                                                        int64_t t488 = t487 + ((t487 >> 63) & b0_d0);
                                                                                                                        int64_t t489 = t486 * b0_s1 + t488 * b0_s0;
                                                                                                                        uint8_t t490 = b0[t489];
                                                                                                                        int64_t t491 = (int64_t)t490;
                                                                                                                        int64_t t492 = (int64_t)(uint32_t)(t491);
                                                                                                                        int64_t t493 = (int64_t)((uint64_t)t483 + (uint64_t)INT64_C(1));
                                                                                                                        int64_t t494 = t493;
                                                                                                                        int64_t t495 = t494 + ((t494 >> 63) & b0_d1);
                                                                                                                        int64_t t496 = t482;
                                                                                                                        int64_t t497 = t496 + ((t496 >> 63) & b0_d0);
                                                                                                                        int64_t t498 = t495 * b0_s1 + t497 * b0_s0;
                                                                                                                        uint8_t t499 = b0[t498];
                                                                                                                        int64_t t500 = (int64_t)t499;
                                                                                                                        int64_t t501 = (int64_t)(uint32_t)(t500);
                                                                                                                        int64_t t502 = (int64_t)((uint64_t)t492 + (uint64_t)t501);
                                                                                                                        int64_t t503 = t483;
                                                                                                                        int64_t t504 = t503 + ((t503 >> 63) & b0_d1);
                                                                                                                        int64_t t505 = t482;
                                                                                                                        int64_t t506 = t505 + ((t505 >> 63) & b0_d0);
                                                                                                                        int64_t t507 = t504 * b0_s1 + t506 * b0_s0;
                                                                                                                        uint8_t t508 = b0[t507];
                                                                                                                        int64_t t509 = (int64_t)t508;
                                                                                                                        int64_t t510 = (int64_t)(uint32_t)(t509);
                                                                                                                        int64_t t511 = (int64_t)((uint64_t)t502 + (uint64_t)t510);
                                                                                                                        int64_t t512 = (t511) >> ((INT64_C(1)) & 63);
                                                                                                                        int64_t t513 = (int64_t)(uint8_t)(t512);
                                                                                                                        int64_t t514 = (int64_t)(uint8_t)(t513);
                                                                                                                        int64_t t515 = (t467 + i0_478) * t67 + (t469 + t481) * t66;
                                                                                                                        a_bx_scratch_0[t515] = (uint8_t)(t514);
                                                                                                                    }
                                                                                                                }
                                                                                                                for (int64_t tail_516 = iv_479; tail_516 < t475; ++tail_516) {
                                                                                                                    int64_t t517 = t476 + i0_478;
                                                                                                                    int64_t t518 = t477 + tail_516;
                                                                                                                    int64_t t519 = (int64_t)((uint64_t)t518 + (uint64_t)INT64_C(-1));
                                                                                                                    int64_t t520 = t519;
                                                                                                                    int64_t t521 = t520 + ((t520 >> 63) & b0_d1);
                                                                                                                    int64_t t522 = t517;
                                                                                                                    int64_t t523 = t522 + ((t522 >> 63) & b0_d0);
                                                                                                                    int64_t t524 = t521 * b0_s1 + t523 * b0_s0;
                                                                                                                    uint8_t t525 = b0[t524];
                                                                                                                    int64_t t526 = (int64_t)t525;
                                                                                                                    int64_t t527 = (int64_t)(uint32_t)(t526);
                                                                                                                    int64_t t528 = (int64_t)((uint64_t)t518 + (uint64_t)INT64_C(1));
                                                                                                                    int64_t t529 = t528;
                                                                                                                    int64_t t530 = t529 + ((t529 >> 63) & b0_d1);
                                                                                                                    int64_t t531 = t517;
                                                                                                                    int64_t t532 = t531 + ((t531 >> 63) & b0_d0);
                                                                                                                    int64_t t533 = t530 * b0_s1 + t532 * b0_s0;
                                                                                                                    uint8_t t534 = b0[t533];
                                                                                                                    int64_t t535 = (int64_t)t534;
                                                                                                                    int64_t t536 = (int64_t)(uint32_t)(t535);
                                                                                                                    int64_t t537 = (int64_t)((uint64_t)t527 + (uint64_t)t536);
                                                                                                                    int64_t t538 = t518;
                                                                                                                    int64_t t539 = t538 + ((t538 >> 63) & b0_d1);
                                                                                                                    int64_t t540 = t517;
                                                                                                                    int64_t t541 = t540 + ((t540 >> 63) & b0_d0);
                                                                                                                    int64_t t542 = t539 * b0_s1 + t541 * b0_s0;
                                                                                                                    uint8_t t543 = b0[t542];
                                                                                                                    int64_t t544 = (int64_t)t543;
                                                                                                                    int64_t t545 = (int64_t)(uint32_t)(t544);
                                                                                                                    int64_t t546 = (int64_t)((uint64_t)t537 + (uint64_t)t545);
                                                                                                                    int64_t t547 = (t546) >> ((INT64_C(1)) & 63);
                                                                                                                    int64_t t548 = (int64_t)(uint8_t)(t547);
                                                                                                                    int64_t t549 = (int64_t)(uint8_t)(t548);
                                                                                                                    int64_t t550 = (t467 + i0_478) * t67 + (t469 + tail_516) * t66;
                                                                                                                    a_bx_scratch_0[t550] = (uint8_t)(t549);
                                                                                                                }
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                                { /* pad_edge bx.scratch#0 */
                                                                                                    int64_t t551 = v_s0_coff0;
                                                                                                    int64_t t552 = v_s0_coff1;
                                                                                                    int64_t t553 = v_s0_ce0;
                                                                                                    int64_t t554 = v_s0_ce1;
                                                                                                    int64_t t555 = t551 + t553;
                                                                                                    if (t551 > 0) {
                                                                                                        {
                                                                                                            for (int64_t p0 = 0; p0 < t551; ++p0) {
                                                                                                                for (int64_t p1 = 0; p1 < t64; ++p1) {
                                                                                                                    int64_t t556 = p0 * t67 + p1 * t66;
                                                                                                                    int64_t t557 = t551 * t67 + p1 * t66;
                                                                                                                    a_bx_scratch_0[t556] = a_bx_scratch_0[t557];
                                                                                                                }
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                    if (t63 > t555) {
                                                                                                        {
                                                                                                            for (int64_t p0_558 = t555; p0_558 < t63; ++p0_558) {
                                                                                                                for (int64_t p1_559 = 0; p1_559 < t64; ++p1_559) {
                                                                                                                    int64_t t560 = p0_558 * t67 + p1_559 * t66;
                                                                                                                    int64_t t561 = (t555 - 1) * t67 + p1_559 * t66;
                                                                                                                    a_bx_scratch_0[t560] = a_bx_scratch_0[t561];
                                                                                                                }
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                    int64_t t562 = t552 + t554;
                                                                                                    if (t552 > 0) {
                                                                                                        {
                                                                                                            for (int64_t p0_563 = 0; p0_563 < t63; ++p0_563) {
                                                                                                                for (int64_t p1_564 = 0; p1_564 < t552; ++p1_564) {
                                                                                                                    int64_t t565 = p0_563 * t67 + p1_564 * t66;
                                                                                                                    int64_t t566 = p0_563 * t67 + t552 * t66;
                                                                                                                    a_bx_scratch_0[t565] = a_bx_scratch_0[t566];
                                                                                                                }
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                    if (t64 > t562) {
                                                                                                        {
                                                                                                            for (int64_t p0_567 = 0; p0_567 < t63; ++p0_567) {
                                                                                                                for (int64_t p1_568 = t562; p1_568 < t64; ++p1_568) {
                                                                                                                    int64_t t569 = p0_567 * t67 + p1_568 * t66;
                                                                                                                    int64_t t570 = p0_567 * t67 + (t562 - 1) * t66;
                                                                                                                    a_bx_scratch_0[t569] = a_bx_scratch_0[t570];
                                                                                                                }
                                                                                                            }
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                                /* consume bx */
                                                                                                { /* store consume */
                                                                                                    int64_t t571 = v_s1_oy;
                                                                                                    int64_t t572 = v_s1_ox;
                                                                                                    int64_t t573 = v_s1_ey;
                                                                                                    int64_t t574 = v_s1_ex;
                                                                                                    int64_t t575 = INT64_C(0);
                                                                                                    int64_t t576 = INT64_C(0);
                                                                                                    if (t573 > 0 && t574 > 0) {
                                                                                                        if (t576 < -t64 || (t576 + t574 - 1) >= t64) { return 4; }
                                                                                                        if ((t575 + INT64_C(1)) < -t63 || ((t575 + t573 - 1) + INT64_C(1)) >= t63) { return 4; }
                                                                                                        if ((t575 + INT64_C(2)) < -t63 || ((t575 + t573 - 1) + INT64_C(2)) >= t63) { return 4; }
                                                                                                        if (t575 < -t63 || (t575 + t573 - 1) >= t63) { return 4; }
                                                                                                        for (int64_t i0_577 = 0; i0_577 < t573; ++i0_577) {
                                                                                                            int64_t iv_578 = 0;
                                                                                                            for (; iv_578 + 8 <= t574; iv_578 += 8) {
                                                                                                                #pragma GCC ivdep
                                                                                                                for (int64_t lane_579 = 0; lane_579 < 8; ++lane_579) {
                                                                                                                    int64_t t580 = iv_578 + lane_579;
                                                                                                                    int64_t t581 = t575 + i0_577;
                                                                                                                    int64_t t582 = t576 + t580;
                                                                                                                    int64_t t583 = t582;
                                                                                                                    int64_t t584 = t583 + ((t583 >> 63) & t64);
                                                                                                                    int64_t t585 = (int64_t)((uint64_t)t581 + (uint64_t)INT64_C(1));
                                                                                                                    int64_t t586 = t585;
                                                                                                                    int64_t t587 = t586 + ((t586 >> 63) & t63);
                                                                                                                    int64_t t588 = t584 * t66 + t587 * t67;
                                                                                                                    uint8_t t589 = a_bx_scratch_0[t588];
                                                                                                                    int64_t t590 = (int64_t)t589;
                                                                                                                    int64_t t591 = (int64_t)(uint32_t)(t590);
                                                                                                                    int64_t t592 = t582;
                                                                                                                    int64_t t593 = t592 + ((t592 >> 63) & t64);
                                                                                                                    int64_t t594 = (int64_t)((uint64_t)t581 + (uint64_t)INT64_C(2));
                                                                                                                    int64_t t595 = t594;
                                                                                                                    int64_t t596 = t595 + ((t595 >> 63) & t63);
                                                                                                                    int64_t t597 = t593 * t66 + t596 * t67;
                                                                                                                    uint8_t t598 = a_bx_scratch_0[t597];
                                                                                                                    int64_t t599 = (int64_t)t598;
                                                                                                                    int64_t t600 = (int64_t)(uint32_t)(t599);
                                                                                                                    int64_t t601 = (int64_t)((uint64_t)t591 + (uint64_t)t600);
                                                                                                                    int64_t t602 = t582;
                                                                                                                    int64_t t603 = t602 + ((t602 >> 63) & t64);
                                                                                                                    int64_t t604 = t581;
                                                                                                                    int64_t t605 = t604 + ((t604 >> 63) & t63);
                                                                                                                    int64_t t606 = t603 * t66 + t605 * t67;
                                                                                                                    uint8_t t607 = a_bx_scratch_0[t606];
                                                                                                                    int64_t t608 = (int64_t)t607;
                                                                                                                    int64_t t609 = (int64_t)(uint32_t)(t608);
                                                                                                                    int64_t t610 = (int64_t)((uint64_t)t601 + (uint64_t)t609);
                                                                                                                    int64_t t611 = (t610) >> ((INT64_C(1)) & 63);
                                                                                                                    int64_t t612 = (int64_t)(uint8_t)(t611);
                                                                                                                    int64_t t613 = (int64_t)(uint8_t)(t612);
                                                                                                                    int64_t t614 = (t571 + i0_577) * b1_s0 + (t572 + t580) * b1_s1;
                                                                                                                    b1[t614] = (uint8_t)(t613);
                                                                                                                }
                                                                                                            }
                                                                                                            for (int64_t tail_615 = iv_578; tail_615 < t574; ++tail_615) {
                                                                                                                int64_t t616 = t575 + i0_577;
                                                                                                                int64_t t617 = t576 + tail_615;
                                                                                                                int64_t t618 = t617;
                                                                                                                int64_t t619 = t618 + ((t618 >> 63) & t64);
                                                                                                                int64_t t620 = (int64_t)((uint64_t)t616 + (uint64_t)INT64_C(1));
                                                                                                                int64_t t621 = t620;
                                                                                                                int64_t t622 = t621 + ((t621 >> 63) & t63);
                                                                                                                int64_t t623 = t619 * t66 + t622 * t67;
                                                                                                                uint8_t t624 = a_bx_scratch_0[t623];
                                                                                                                int64_t t625 = (int64_t)t624;
                                                                                                                int64_t t626 = (int64_t)(uint32_t)(t625);
                                                                                                                int64_t t627 = t617;
                                                                                                                int64_t t628 = t627 + ((t627 >> 63) & t64);
                                                                                                                int64_t t629 = (int64_t)((uint64_t)t616 + (uint64_t)INT64_C(2));
                                                                                                                int64_t t630 = t629;
                                                                                                                int64_t t631 = t630 + ((t630 >> 63) & t63);
                                                                                                                int64_t t632 = t628 * t66 + t631 * t67;
                                                                                                                uint8_t t633 = a_bx_scratch_0[t632];
                                                                                                                int64_t t634 = (int64_t)t633;
                                                                                                                int64_t t635 = (int64_t)(uint32_t)(t634);
                                                                                                                int64_t t636 = (int64_t)((uint64_t)t626 + (uint64_t)t635);
                                                                                                                int64_t t637 = t617;
                                                                                                                int64_t t638 = t637 + ((t637 >> 63) & t64);
                                                                                                                int64_t t639 = t616;
                                                                                                                int64_t t640 = t639 + ((t639 >> 63) & t63);
                                                                                                                int64_t t641 = t638 * t66 + t640 * t67;
                                                                                                                uint8_t t642 = a_bx_scratch_0[t641];
                                                                                                                int64_t t643 = (int64_t)t642;
                                                                                                                int64_t t644 = (int64_t)(uint32_t)(t643);
                                                                                                                int64_t t645 = (int64_t)((uint64_t)t636 + (uint64_t)t644);
                                                                                                                int64_t t646 = (t645) >> ((INT64_C(1)) & 63);
                                                                                                                int64_t t647 = (int64_t)(uint8_t)(t646);
                                                                                                                int64_t t648 = (int64_t)(uint8_t)(t647);
                                                                                                                int64_t t649 = (t571 + i0_577) * b1_s0 + (t572 + tail_615) * b1_s1;
                                                                                                                b1[t649] = (uint8_t)(t648);
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
                                                                                                    for (int64_t i0 = 0; i0 < t76; ++i0) {
                                                                                                        int64_t iv = 0;
                                                                                                        for (; iv + 8 <= t77; iv += 8) {
                                                                                                            #pragma GCC ivdep
                                                                                                            for (int64_t lane = 0; lane < 8; ++lane) {
                                                                                                                int64_t t80 = iv + lane;
                                                                                                                int64_t t81 = t78 + i0;
                                                                                                                int64_t t82 = t79 + t80;
                                                                                                                int64_t t83 = (int64_t)((uint64_t)t82 + (uint64_t)INT64_C(-1));
                                                                                                                int64_t t84 = t83;
                                                                                                                int64_t t85 = t84 + ((t84 >> 63) & b0_d1);
                                                                                                                int64_t t86 = t81;
                                                                                                                int64_t t87 = t86 + ((t86 >> 63) & b0_d0);
                                                                                                                int64_t t88 = t85 * b0_s1 + t87 * b0_s0;
                                                                                                                uint8_t t89 = b0[t88];
                                                                                                                int64_t t90 = (int64_t)t89;
                                                                                                                int64_t t91 = (int64_t)(uint32_t)(t90);
                                                                                                                int64_t t92 = (int64_t)((uint64_t)t82 + (uint64_t)INT64_C(1));
                                                                                                                int64_t t93 = t92;
                                                                                                                int64_t t94 = t93 + ((t93 >> 63) & b0_d1);
                                                                                                                int64_t t95 = t81;
                                                                                                                int64_t t96 = t95 + ((t95 >> 63) & b0_d0);
                                                                                                                int64_t t97 = t94 * b0_s1 + t96 * b0_s0;
                                                                                                                uint8_t t98 = b0[t97];
                                                                                                                int64_t t99 = (int64_t)t98;
                                                                                                                int64_t t100 = (int64_t)(uint32_t)(t99);
                                                                                                                int64_t t101 = (int64_t)((uint64_t)t91 + (uint64_t)t100);
                                                                                                                int64_t t102 = t82;
                                                                                                                int64_t t103 = t102 + ((t102 >> 63) & b0_d1);
                                                                                                                int64_t t104 = t81;
                                                                                                                int64_t t105 = t104 + ((t104 >> 63) & b0_d0);
                                                                                                                int64_t t106 = t103 * b0_s1 + t105 * b0_s0;
                                                                                                                uint8_t t107 = b0[t106];
                                                                                                                int64_t t108 = (int64_t)t107;
                                                                                                                int64_t t109 = (int64_t)(uint32_t)(t108);
                                                                                                                int64_t t110 = (int64_t)((uint64_t)t101 + (uint64_t)t109);
                                                                                                                int64_t t111 = (t110) >> ((INT64_C(1)) & 63);
                                                                                                                int64_t t112 = (int64_t)(uint8_t)(t111);
                                                                                                                int64_t t113 = (int64_t)(uint8_t)(t112);
                                                                                                                int64_t t114 = (t73 + i0) * t64 + (t75 + t80) * t63;
                                                                                                                a_bx_scratch_0[t114] = (uint8_t)(t113);
                                                                                                            }
                                                                                                        }
                                                                                                        for (int64_t tail = iv; tail < t77; ++tail) {
                                                                                                            int64_t t115 = t78 + i0;
                                                                                                            int64_t t116 = t79 + tail;
                                                                                                            int64_t t117 = (int64_t)((uint64_t)t116 + (uint64_t)INT64_C(-1));
                                                                                                            int64_t t118 = t117;
                                                                                                            int64_t t119 = t118 + ((t118 >> 63) & b0_d1);
                                                                                                            int64_t t120 = t115;
                                                                                                            int64_t t121 = t120 + ((t120 >> 63) & b0_d0);
                                                                                                            int64_t t122 = t119 * b0_s1 + t121 * b0_s0;
                                                                                                            uint8_t t123 = b0[t122];
                                                                                                            int64_t t124 = (int64_t)t123;
                                                                                                            int64_t t125 = (int64_t)(uint32_t)(t124);
                                                                                                            int64_t t126 = (int64_t)((uint64_t)t116 + (uint64_t)INT64_C(1));
                                                                                                            int64_t t127 = t126;
                                                                                                            int64_t t128 = t127 + ((t127 >> 63) & b0_d1);
                                                                                                            int64_t t129 = t115;
                                                                                                            int64_t t130 = t129 + ((t129 >> 63) & b0_d0);
                                                                                                            int64_t t131 = t128 * b0_s1 + t130 * b0_s0;
                                                                                                            uint8_t t132 = b0[t131];
                                                                                                            int64_t t133 = (int64_t)t132;
                                                                                                            int64_t t134 = (int64_t)(uint32_t)(t133);
                                                                                                            int64_t t135 = (int64_t)((uint64_t)t125 + (uint64_t)t134);
                                                                                                            int64_t t136 = t116;
                                                                                                            int64_t t137 = t136 + ((t136 >> 63) & b0_d1);
                                                                                                            int64_t t138 = t115;
                                                                                                            int64_t t139 = t138 + ((t138 >> 63) & b0_d0);
                                                                                                            int64_t t140 = t137 * b0_s1 + t139 * b0_s0;
                                                                                                            uint8_t t141 = b0[t140];
                                                                                                            int64_t t142 = (int64_t)t141;
                                                                                                            int64_t t143 = (int64_t)(uint32_t)(t142);
                                                                                                            int64_t t144 = (int64_t)((uint64_t)t135 + (uint64_t)t143);
                                                                                                            int64_t t145 = (t144) >> ((INT64_C(1)) & 63);
                                                                                                            int64_t t146 = (int64_t)(uint8_t)(t145);
                                                                                                            int64_t t147 = (int64_t)(uint8_t)(t146);
                                                                                                            int64_t t148 = (t73 + i0) * t64 + (t75 + tail) * t63;
                                                                                                            a_bx_scratch_0[t148] = (uint8_t)(t147);
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                        } else {
                                                                                            { /* store border-lo1 */
                                                                                                int64_t t149 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                                                                int64_t t150 = t149;
                                                                                                int64_t t151 = (int64_t)((uint64_t)v_s0_co1 - (uint64_t)v_s1_ox);
                                                                                                int64_t t152 = t151;
                                                                                                int64_t t153 = (int64_t)((uint64_t)v_s0_p_hi0 - (uint64_t)v_s0_co0);
                                                                                                int64_t t154 = (int64_t)((uint64_t)t153 + (uint64_t)INT64_C(1));
                                                                                                int64_t t155 = t154;
                                                                                                int64_t t156 = (int64_t)((uint64_t)v_s0_p_ilo1 - (uint64_t)v_s0_co1);
                                                                                                int64_t t157 = t156;
                                                                                                int64_t t158 = v_s0_co0;
                                                                                                int64_t t159 = v_s0_co1;
                                                                                                if (t155 > 0 && t157 > 0) {
                                                                                                    if (((INT64_C(127)) < (((INT64_C(0)) > ((t159 + INT64_C(-1))) ? (INT64_C(0)) : ((t159 + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t159 + INT64_C(-1))) ? (INT64_C(0)) : ((t159 + INT64_C(-1)))))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > (((t159 + t157 - 1) + INT64_C(-1))) ? (INT64_C(0)) : (((t159 + t157 - 1) + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > (((t159 + t157 - 1) + INT64_C(-1))) ? (INT64_C(0)) : (((t159 + t157 - 1) + INT64_C(-1)))))) >= b0_d1) { return 4; }
                                                                                                    if (((INT64_C(95)) < (((INT64_C(0)) > (t158) ? (INT64_C(0)) : (t158))) ? (INT64_C(95)) : (((INT64_C(0)) > (t158) ? (INT64_C(0)) : (t158)))) < -b0_d0 || ((INT64_C(95)) < (((INT64_C(0)) > ((t158 + t155 - 1)) ? (INT64_C(0)) : ((t158 + t155 - 1)))) ? (INT64_C(95)) : (((INT64_C(0)) > ((t158 + t155 - 1)) ? (INT64_C(0)) : ((t158 + t155 - 1))))) >= b0_d0) { return 4; }
                                                                                                    if (((INT64_C(127)) < (((INT64_C(0)) > ((t159 + INT64_C(1))) ? (INT64_C(0)) : ((t159 + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t159 + INT64_C(1))) ? (INT64_C(0)) : ((t159 + INT64_C(1)))))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > (((t159 + t157 - 1) + INT64_C(1))) ? (INT64_C(0)) : (((t159 + t157 - 1) + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > (((t159 + t157 - 1) + INT64_C(1))) ? (INT64_C(0)) : (((t159 + t157 - 1) + INT64_C(1)))))) >= b0_d1) { return 4; }
                                                                                                    if (((INT64_C(127)) < (((INT64_C(0)) > (t159) ? (INT64_C(0)) : (t159))) ? (INT64_C(127)) : (((INT64_C(0)) > (t159) ? (INT64_C(0)) : (t159)))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > ((t159 + t157 - 1)) ? (INT64_C(0)) : ((t159 + t157 - 1)))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t159 + t157 - 1)) ? (INT64_C(0)) : ((t159 + t157 - 1))))) >= b0_d1) { return 4; }
                                                                                                    for (int64_t i0_160 = 0; i0_160 < t155; ++i0_160) {
                                                                                                        int64_t iv_161 = 0;
                                                                                                        for (; iv_161 + 8 <= t157; iv_161 += 8) {
                                                                                                            #pragma GCC ivdep
                                                                                                            for (int64_t lane_162 = 0; lane_162 < 8; ++lane_162) {
                                                                                                                int64_t t163 = iv_161 + lane_162;
                                                                                                                int64_t t164 = t158 + i0_160;
                                                                                                                int64_t t165 = t159 + t163;
                                                                                                                int64_t t166 = (int64_t)((uint64_t)t165 + (uint64_t)INT64_C(-1));
                                                                                                                int64_t t167 = INT64_C(0);
                                                                                                                int64_t t168 = t166;
                                                                                                                int64_t t169 = (t167 > t168) ? t167 : t168;
                                                                                                                int64_t t170 = INT64_C(127);
                                                                                                                int64_t t171 = t169;
                                                                                                                int64_t t172 = (t170 < t171) ? t170 : t171;
                                                                                                                int64_t t173 = t172;
                                                                                                                int64_t t174 = t173 + ((t173 >> 63) & b0_d1);
                                                                                                                int64_t t175 = INT64_C(0);
                                                                                                                int64_t t176 = t164;
                                                                                                                int64_t t177 = (t175 > t176) ? t175 : t176;
                                                                                                                int64_t t178 = INT64_C(95);
                                                                                                                int64_t t179 = t177;
                                                                                                                int64_t t180 = (t178 < t179) ? t178 : t179;
                                                                                                                int64_t t181 = t180;
                                                                                                                int64_t t182 = t181 + ((t181 >> 63) & b0_d0);
                                                                                                                int64_t t183 = t174 * b0_s1 + t182 * b0_s0;
                                                                                                                uint8_t t184 = b0[t183];
                                                                                                                int64_t t185 = (int64_t)t184;
                                                                                                                int64_t t186 = (int64_t)(uint32_t)(t185);
                                                                                                                int64_t t187 = (int64_t)((uint64_t)t165 + (uint64_t)INT64_C(1));
                                                                                                                int64_t t188 = INT64_C(0);
                                                                                                                int64_t t189 = t187;
                                                                                                                int64_t t190 = (t188 > t189) ? t188 : t189;
                                                                                                                int64_t t191 = INT64_C(127);
                                                                                                                int64_t t192 = t190;
                                                                                                                int64_t t193 = (t191 < t192) ? t191 : t192;
                                                                                                                int64_t t194 = t193;
                                                                                                                int64_t t195 = t194 + ((t194 >> 63) & b0_d1);
                                                                                                                int64_t t196 = INT64_C(0);
                                                                                                                int64_t t197 = t164;
                                                                                                                int64_t t198 = (t196 > t197) ? t196 : t197;
                                                                                                                int64_t t199 = INT64_C(95);
                                                                                                                int64_t t200 = t198;
                                                                                                                int64_t t201 = (t199 < t200) ? t199 : t200;
                                                                                                                int64_t t202 = t201;
                                                                                                                int64_t t203 = t202 + ((t202 >> 63) & b0_d0);
                                                                                                                int64_t t204 = t195 * b0_s1 + t203 * b0_s0;
                                                                                                                uint8_t t205 = b0[t204];
                                                                                                                int64_t t206 = (int64_t)t205;
                                                                                                                int64_t t207 = (int64_t)(uint32_t)(t206);
                                                                                                                int64_t t208 = (int64_t)((uint64_t)t186 + (uint64_t)t207);
                                                                                                                int64_t t209 = INT64_C(0);
                                                                                                                int64_t t210 = t165;
                                                                                                                int64_t t211 = (t209 > t210) ? t209 : t210;
                                                                                                                int64_t t212 = INT64_C(127);
                                                                                                                int64_t t213 = t211;
                                                                                                                int64_t t214 = (t212 < t213) ? t212 : t213;
                                                                                                                int64_t t215 = t214;
                                                                                                                int64_t t216 = t215 + ((t215 >> 63) & b0_d1);
                                                                                                                int64_t t217 = INT64_C(0);
                                                                                                                int64_t t218 = t164;
                                                                                                                int64_t t219 = (t217 > t218) ? t217 : t218;
                                                                                                                int64_t t220 = INT64_C(95);
                                                                                                                int64_t t221 = t219;
                                                                                                                int64_t t222 = (t220 < t221) ? t220 : t221;
                                                                                                                int64_t t223 = t222;
                                                                                                                int64_t t224 = t223 + ((t223 >> 63) & b0_d0);
                                                                                                                int64_t t225 = t216 * b0_s1 + t224 * b0_s0;
                                                                                                                uint8_t t226 = b0[t225];
                                                                                                                int64_t t227 = (int64_t)t226;
                                                                                                                int64_t t228 = (int64_t)(uint32_t)(t227);
                                                                                                                int64_t t229 = (int64_t)((uint64_t)t208 + (uint64_t)t228);
                                                                                                                int64_t t230 = (t229) >> ((INT64_C(1)) & 63);
                                                                                                                int64_t t231 = (int64_t)(uint8_t)(t230);
                                                                                                                int64_t t232 = (int64_t)(uint8_t)(t231);
                                                                                                                int64_t t233 = (t150 + i0_160) * t64 + (t152 + t163) * t63;
                                                                                                                a_bx_scratch_0[t233] = (uint8_t)(t232);
                                                                                                            }
                                                                                                        }
                                                                                                        for (int64_t tail_234 = iv_161; tail_234 < t157; ++tail_234) {
                                                                                                            int64_t t235 = t158 + i0_160;
                                                                                                            int64_t t236 = t159 + tail_234;
                                                                                                            int64_t t237 = (int64_t)((uint64_t)t236 + (uint64_t)INT64_C(-1));
                                                                                                            int64_t t238 = INT64_C(0);
                                                                                                            int64_t t239 = t237;
                                                                                                            int64_t t240 = (t238 > t239) ? t238 : t239;
                                                                                                            int64_t t241 = INT64_C(127);
                                                                                                            int64_t t242 = t240;
                                                                                                            int64_t t243 = (t241 < t242) ? t241 : t242;
                                                                                                            int64_t t244 = t243;
                                                                                                            int64_t t245 = t244 + ((t244 >> 63) & b0_d1);
                                                                                                            int64_t t246 = INT64_C(0);
                                                                                                            int64_t t247 = t235;
                                                                                                            int64_t t248 = (t246 > t247) ? t246 : t247;
                                                                                                            int64_t t249 = INT64_C(95);
                                                                                                            int64_t t250 = t248;
                                                                                                            int64_t t251 = (t249 < t250) ? t249 : t250;
                                                                                                            int64_t t252 = t251;
                                                                                                            int64_t t253 = t252 + ((t252 >> 63) & b0_d0);
                                                                                                            int64_t t254 = t245 * b0_s1 + t253 * b0_s0;
                                                                                                            uint8_t t255 = b0[t254];
                                                                                                            int64_t t256 = (int64_t)t255;
                                                                                                            int64_t t257 = (int64_t)(uint32_t)(t256);
                                                                                                            int64_t t258 = (int64_t)((uint64_t)t236 + (uint64_t)INT64_C(1));
                                                                                                            int64_t t259 = INT64_C(0);
                                                                                                            int64_t t260 = t258;
                                                                                                            int64_t t261 = (t259 > t260) ? t259 : t260;
                                                                                                            int64_t t262 = INT64_C(127);
                                                                                                            int64_t t263 = t261;
                                                                                                            int64_t t264 = (t262 < t263) ? t262 : t263;
                                                                                                            int64_t t265 = t264;
                                                                                                            int64_t t266 = t265 + ((t265 >> 63) & b0_d1);
                                                                                                            int64_t t267 = INT64_C(0);
                                                                                                            int64_t t268 = t235;
                                                                                                            int64_t t269 = (t267 > t268) ? t267 : t268;
                                                                                                            int64_t t270 = INT64_C(95);
                                                                                                            int64_t t271 = t269;
                                                                                                            int64_t t272 = (t270 < t271) ? t270 : t271;
                                                                                                            int64_t t273 = t272;
                                                                                                            int64_t t274 = t273 + ((t273 >> 63) & b0_d0);
                                                                                                            int64_t t275 = t266 * b0_s1 + t274 * b0_s0;
                                                                                                            uint8_t t276 = b0[t275];
                                                                                                            int64_t t277 = (int64_t)t276;
                                                                                                            int64_t t278 = (int64_t)(uint32_t)(t277);
                                                                                                            int64_t t279 = (int64_t)((uint64_t)t257 + (uint64_t)t278);
                                                                                                            int64_t t280 = INT64_C(0);
                                                                                                            int64_t t281 = t236;
                                                                                                            int64_t t282 = (t280 > t281) ? t280 : t281;
                                                                                                            int64_t t283 = INT64_C(127);
                                                                                                            int64_t t284 = t282;
                                                                                                            int64_t t285 = (t283 < t284) ? t283 : t284;
                                                                                                            int64_t t286 = t285;
                                                                                                            int64_t t287 = t286 + ((t286 >> 63) & b0_d1);
                                                                                                            int64_t t288 = INT64_C(0);
                                                                                                            int64_t t289 = t235;
                                                                                                            int64_t t290 = (t288 > t289) ? t288 : t289;
                                                                                                            int64_t t291 = INT64_C(95);
                                                                                                            int64_t t292 = t290;
                                                                                                            int64_t t293 = (t291 < t292) ? t291 : t292;
                                                                                                            int64_t t294 = t293;
                                                                                                            int64_t t295 = t294 + ((t294 >> 63) & b0_d0);
                                                                                                            int64_t t296 = t287 * b0_s1 + t295 * b0_s0;
                                                                                                            uint8_t t297 = b0[t296];
                                                                                                            int64_t t298 = (int64_t)t297;
                                                                                                            int64_t t299 = (int64_t)(uint32_t)(t298);
                                                                                                            int64_t t300 = (int64_t)((uint64_t)t279 + (uint64_t)t299);
                                                                                                            int64_t t301 = (t300) >> ((INT64_C(1)) & 63);
                                                                                                            int64_t t302 = (int64_t)(uint8_t)(t301);
                                                                                                            int64_t t303 = (int64_t)(uint8_t)(t302);
                                                                                                            int64_t t304 = (t150 + i0_160) * t64 + (t152 + tail_234) * t63;
                                                                                                            a_bx_scratch_0[t304] = (uint8_t)(t303);
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                            { /* store border-hi1 */
                                                                                                int64_t t305 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                                                                int64_t t306 = t305;
                                                                                                int64_t t307 = (int64_t)((uint64_t)v_s0_p_ihi1 + (uint64_t)INT64_C(1));
                                                                                                int64_t t308 = (int64_t)((uint64_t)t307 - (uint64_t)v_s1_ox);
                                                                                                int64_t t309 = t308;
                                                                                                int64_t t310 = (int64_t)((uint64_t)v_s0_p_hi0 - (uint64_t)v_s0_co0);
                                                                                                int64_t t311 = (int64_t)((uint64_t)t310 + (uint64_t)INT64_C(1));
                                                                                                int64_t t312 = t311;
                                                                                                int64_t t313 = (int64_t)((uint64_t)v_s0_p_hi1 - (uint64_t)v_s0_p_ihi1);
                                                                                                int64_t t314 = t313;
                                                                                                int64_t t315 = v_s0_co0;
                                                                                                int64_t t316 = (int64_t)((uint64_t)v_s0_p_ihi1 + (uint64_t)INT64_C(1));
                                                                                                int64_t t317 = t316;
                                                                                                if (t312 > 0 && t314 > 0) {
                                                                                                    if (((INT64_C(127)) < (((INT64_C(0)) > ((t317 + INT64_C(-1))) ? (INT64_C(0)) : ((t317 + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t317 + INT64_C(-1))) ? (INT64_C(0)) : ((t317 + INT64_C(-1)))))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > (((t317 + t314 - 1) + INT64_C(-1))) ? (INT64_C(0)) : (((t317 + t314 - 1) + INT64_C(-1))))) ? (INT64_C(127)) : (((INT64_C(0)) > (((t317 + t314 - 1) + INT64_C(-1))) ? (INT64_C(0)) : (((t317 + t314 - 1) + INT64_C(-1)))))) >= b0_d1) { return 4; }
                                                                                                    if (((INT64_C(95)) < (((INT64_C(0)) > (t315) ? (INT64_C(0)) : (t315))) ? (INT64_C(95)) : (((INT64_C(0)) > (t315) ? (INT64_C(0)) : (t315)))) < -b0_d0 || ((INT64_C(95)) < (((INT64_C(0)) > ((t315 + t312 - 1)) ? (INT64_C(0)) : ((t315 + t312 - 1)))) ? (INT64_C(95)) : (((INT64_C(0)) > ((t315 + t312 - 1)) ? (INT64_C(0)) : ((t315 + t312 - 1))))) >= b0_d0) { return 4; }
                                                                                                    if (((INT64_C(127)) < (((INT64_C(0)) > ((t317 + INT64_C(1))) ? (INT64_C(0)) : ((t317 + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t317 + INT64_C(1))) ? (INT64_C(0)) : ((t317 + INT64_C(1)))))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > (((t317 + t314 - 1) + INT64_C(1))) ? (INT64_C(0)) : (((t317 + t314 - 1) + INT64_C(1))))) ? (INT64_C(127)) : (((INT64_C(0)) > (((t317 + t314 - 1) + INT64_C(1))) ? (INT64_C(0)) : (((t317 + t314 - 1) + INT64_C(1)))))) >= b0_d1) { return 4; }
                                                                                                    if (((INT64_C(127)) < (((INT64_C(0)) > (t317) ? (INT64_C(0)) : (t317))) ? (INT64_C(127)) : (((INT64_C(0)) > (t317) ? (INT64_C(0)) : (t317)))) < -b0_d1 || ((INT64_C(127)) < (((INT64_C(0)) > ((t317 + t314 - 1)) ? (INT64_C(0)) : ((t317 + t314 - 1)))) ? (INT64_C(127)) : (((INT64_C(0)) > ((t317 + t314 - 1)) ? (INT64_C(0)) : ((t317 + t314 - 1))))) >= b0_d1) { return 4; }
                                                                                                    for (int64_t i0_318 = 0; i0_318 < t312; ++i0_318) {
                                                                                                        int64_t iv_319 = 0;
                                                                                                        for (; iv_319 + 8 <= t314; iv_319 += 8) {
                                                                                                            #pragma GCC ivdep
                                                                                                            for (int64_t lane_320 = 0; lane_320 < 8; ++lane_320) {
                                                                                                                int64_t t321 = iv_319 + lane_320;
                                                                                                                int64_t t322 = t315 + i0_318;
                                                                                                                int64_t t323 = t317 + t321;
                                                                                                                int64_t t324 = (int64_t)((uint64_t)t323 + (uint64_t)INT64_C(-1));
                                                                                                                int64_t t325 = INT64_C(0);
                                                                                                                int64_t t326 = t324;
                                                                                                                int64_t t327 = (t325 > t326) ? t325 : t326;
                                                                                                                int64_t t328 = INT64_C(127);
                                                                                                                int64_t t329 = t327;
                                                                                                                int64_t t330 = (t328 < t329) ? t328 : t329;
                                                                                                                int64_t t331 = t330;
                                                                                                                int64_t t332 = t331 + ((t331 >> 63) & b0_d1);
                                                                                                                int64_t t333 = INT64_C(0);
                                                                                                                int64_t t334 = t322;
                                                                                                                int64_t t335 = (t333 > t334) ? t333 : t334;
                                                                                                                int64_t t336 = INT64_C(95);
                                                                                                                int64_t t337 = t335;
                                                                                                                int64_t t338 = (t336 < t337) ? t336 : t337;
                                                                                                                int64_t t339 = t338;
                                                                                                                int64_t t340 = t339 + ((t339 >> 63) & b0_d0);
                                                                                                                int64_t t341 = t332 * b0_s1 + t340 * b0_s0;
                                                                                                                uint8_t t342 = b0[t341];
                                                                                                                int64_t t343 = (int64_t)t342;
                                                                                                                int64_t t344 = (int64_t)(uint32_t)(t343);
                                                                                                                int64_t t345 = (int64_t)((uint64_t)t323 + (uint64_t)INT64_C(1));
                                                                                                                int64_t t346 = INT64_C(0);
                                                                                                                int64_t t347 = t345;
                                                                                                                int64_t t348 = (t346 > t347) ? t346 : t347;
                                                                                                                int64_t t349 = INT64_C(127);
                                                                                                                int64_t t350 = t348;
                                                                                                                int64_t t351 = (t349 < t350) ? t349 : t350;
                                                                                                                int64_t t352 = t351;
                                                                                                                int64_t t353 = t352 + ((t352 >> 63) & b0_d1);
                                                                                                                int64_t t354 = INT64_C(0);
                                                                                                                int64_t t355 = t322;
                                                                                                                int64_t t356 = (t354 > t355) ? t354 : t355;
                                                                                                                int64_t t357 = INT64_C(95);
                                                                                                                int64_t t358 = t356;
                                                                                                                int64_t t359 = (t357 < t358) ? t357 : t358;
                                                                                                                int64_t t360 = t359;
                                                                                                                int64_t t361 = t360 + ((t360 >> 63) & b0_d0);
                                                                                                                int64_t t362 = t353 * b0_s1 + t361 * b0_s0;
                                                                                                                uint8_t t363 = b0[t362];
                                                                                                                int64_t t364 = (int64_t)t363;
                                                                                                                int64_t t365 = (int64_t)(uint32_t)(t364);
                                                                                                                int64_t t366 = (int64_t)((uint64_t)t344 + (uint64_t)t365);
                                                                                                                int64_t t367 = INT64_C(0);
                                                                                                                int64_t t368 = t323;
                                                                                                                int64_t t369 = (t367 > t368) ? t367 : t368;
                                                                                                                int64_t t370 = INT64_C(127);
                                                                                                                int64_t t371 = t369;
                                                                                                                int64_t t372 = (t370 < t371) ? t370 : t371;
                                                                                                                int64_t t373 = t372;
                                                                                                                int64_t t374 = t373 + ((t373 >> 63) & b0_d1);
                                                                                                                int64_t t375 = INT64_C(0);
                                                                                                                int64_t t376 = t322;
                                                                                                                int64_t t377 = (t375 > t376) ? t375 : t376;
                                                                                                                int64_t t378 = INT64_C(95);
                                                                                                                int64_t t379 = t377;
                                                                                                                int64_t t380 = (t378 < t379) ? t378 : t379;
                                                                                                                int64_t t381 = t380;
                                                                                                                int64_t t382 = t381 + ((t381 >> 63) & b0_d0);
                                                                                                                int64_t t383 = t374 * b0_s1 + t382 * b0_s0;
                                                                                                                uint8_t t384 = b0[t383];
                                                                                                                int64_t t385 = (int64_t)t384;
                                                                                                                int64_t t386 = (int64_t)(uint32_t)(t385);
                                                                                                                int64_t t387 = (int64_t)((uint64_t)t366 + (uint64_t)t386);
                                                                                                                int64_t t388 = (t387) >> ((INT64_C(1)) & 63);
                                                                                                                int64_t t389 = (int64_t)(uint8_t)(t388);
                                                                                                                int64_t t390 = (int64_t)(uint8_t)(t389);
                                                                                                                int64_t t391 = (t306 + i0_318) * t64 + (t309 + t321) * t63;
                                                                                                                a_bx_scratch_0[t391] = (uint8_t)(t390);
                                                                                                            }
                                                                                                        }
                                                                                                        for (int64_t tail_392 = iv_319; tail_392 < t314; ++tail_392) {
                                                                                                            int64_t t393 = t315 + i0_318;
                                                                                                            int64_t t394 = t317 + tail_392;
                                                                                                            int64_t t395 = (int64_t)((uint64_t)t394 + (uint64_t)INT64_C(-1));
                                                                                                            int64_t t396 = INT64_C(0);
                                                                                                            int64_t t397 = t395;
                                                                                                            int64_t t398 = (t396 > t397) ? t396 : t397;
                                                                                                            int64_t t399 = INT64_C(127);
                                                                                                            int64_t t400 = t398;
                                                                                                            int64_t t401 = (t399 < t400) ? t399 : t400;
                                                                                                            int64_t t402 = t401;
                                                                                                            int64_t t403 = t402 + ((t402 >> 63) & b0_d1);
                                                                                                            int64_t t404 = INT64_C(0);
                                                                                                            int64_t t405 = t393;
                                                                                                            int64_t t406 = (t404 > t405) ? t404 : t405;
                                                                                                            int64_t t407 = INT64_C(95);
                                                                                                            int64_t t408 = t406;
                                                                                                            int64_t t409 = (t407 < t408) ? t407 : t408;
                                                                                                            int64_t t410 = t409;
                                                                                                            int64_t t411 = t410 + ((t410 >> 63) & b0_d0);
                                                                                                            int64_t t412 = t403 * b0_s1 + t411 * b0_s0;
                                                                                                            uint8_t t413 = b0[t412];
                                                                                                            int64_t t414 = (int64_t)t413;
                                                                                                            int64_t t415 = (int64_t)(uint32_t)(t414);
                                                                                                            int64_t t416 = (int64_t)((uint64_t)t394 + (uint64_t)INT64_C(1));
                                                                                                            int64_t t417 = INT64_C(0);
                                                                                                            int64_t t418 = t416;
                                                                                                            int64_t t419 = (t417 > t418) ? t417 : t418;
                                                                                                            int64_t t420 = INT64_C(127);
                                                                                                            int64_t t421 = t419;
                                                                                                            int64_t t422 = (t420 < t421) ? t420 : t421;
                                                                                                            int64_t t423 = t422;
                                                                                                            int64_t t424 = t423 + ((t423 >> 63) & b0_d1);
                                                                                                            int64_t t425 = INT64_C(0);
                                                                                                            int64_t t426 = t393;
                                                                                                            int64_t t427 = (t425 > t426) ? t425 : t426;
                                                                                                            int64_t t428 = INT64_C(95);
                                                                                                            int64_t t429 = t427;
                                                                                                            int64_t t430 = (t428 < t429) ? t428 : t429;
                                                                                                            int64_t t431 = t430;
                                                                                                            int64_t t432 = t431 + ((t431 >> 63) & b0_d0);
                                                                                                            int64_t t433 = t424 * b0_s1 + t432 * b0_s0;
                                                                                                            uint8_t t434 = b0[t433];
                                                                                                            int64_t t435 = (int64_t)t434;
                                                                                                            int64_t t436 = (int64_t)(uint32_t)(t435);
                                                                                                            int64_t t437 = (int64_t)((uint64_t)t415 + (uint64_t)t436);
                                                                                                            int64_t t438 = INT64_C(0);
                                                                                                            int64_t t439 = t394;
                                                                                                            int64_t t440 = (t438 > t439) ? t438 : t439;
                                                                                                            int64_t t441 = INT64_C(127);
                                                                                                            int64_t t442 = t440;
                                                                                                            int64_t t443 = (t441 < t442) ? t441 : t442;
                                                                                                            int64_t t444 = t443;
                                                                                                            int64_t t445 = t444 + ((t444 >> 63) & b0_d1);
                                                                                                            int64_t t446 = INT64_C(0);
                                                                                                            int64_t t447 = t393;
                                                                                                            int64_t t448 = (t446 > t447) ? t446 : t447;
                                                                                                            int64_t t449 = INT64_C(95);
                                                                                                            int64_t t450 = t448;
                                                                                                            int64_t t451 = (t449 < t450) ? t449 : t450;
                                                                                                            int64_t t452 = t451;
                                                                                                            int64_t t453 = t452 + ((t452 >> 63) & b0_d0);
                                                                                                            int64_t t454 = t445 * b0_s1 + t453 * b0_s0;
                                                                                                            uint8_t t455 = b0[t454];
                                                                                                            int64_t t456 = (int64_t)t455;
                                                                                                            int64_t t457 = (int64_t)(uint32_t)(t456);
                                                                                                            int64_t t458 = (int64_t)((uint64_t)t437 + (uint64_t)t457);
                                                                                                            int64_t t459 = (t458) >> ((INT64_C(1)) & 63);
                                                                                                            int64_t t460 = (int64_t)(uint8_t)(t459);
                                                                                                            int64_t t461 = (int64_t)(uint8_t)(t460);
                                                                                                            int64_t t462 = (t306 + i0_318) * t64 + (t309 + tail_392) * t63;
                                                                                                            a_bx_scratch_0[t462] = (uint8_t)(t461);
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                            { /* store interior */
                                                                                                int64_t t463 = (int64_t)((uint64_t)v_s0_co0 - (uint64_t)v_s0_ro0);
                                                                                                int64_t t464 = t463;
                                                                                                int64_t t465 = (int64_t)((uint64_t)v_s0_p_ilo1 - (uint64_t)v_s1_ox);
                                                                                                int64_t t466 = t465;
                                                                                                int64_t t467 = (int64_t)((uint64_t)v_s0_p_hi0 - (uint64_t)v_s0_co0);
                                                                                                int64_t t468 = (int64_t)((uint64_t)t467 + (uint64_t)INT64_C(1));
                                                                                                int64_t t469 = t468;
                                                                                                int64_t t470 = (int64_t)((uint64_t)v_s0_p_ihi1 - (uint64_t)v_s0_p_ilo1);
                                                                                                int64_t t471 = (int64_t)((uint64_t)t470 + (uint64_t)INT64_C(1));
                                                                                                int64_t t472 = t471;
                                                                                                int64_t t473 = v_s0_co0;
                                                                                                int64_t t474 = v_s0_p_ilo1;
                                                                                                if (t469 > 0 && t472 > 0) {
                                                                                                    if ((t474 + INT64_C(-1)) < -b0_d1 || ((t474 + t472 - 1) + INT64_C(-1)) >= b0_d1) { return 4; }
                                                                                                    if (t473 < -b0_d0 || (t473 + t469 - 1) >= b0_d0) { return 4; }
                                                                                                    if ((t474 + INT64_C(1)) < -b0_d1 || ((t474 + t472 - 1) + INT64_C(1)) >= b0_d1) { return 4; }
                                                                                                    if (t474 < -b0_d1 || (t474 + t472 - 1) >= b0_d1) { return 4; }
                                                                                                    for (int64_t i0_475 = 0; i0_475 < t469; ++i0_475) {
                                                                                                        int64_t iv_476 = 0;
                                                                                                        for (; iv_476 + 8 <= t472; iv_476 += 8) {
                                                                                                            #pragma GCC ivdep
                                                                                                            for (int64_t lane_477 = 0; lane_477 < 8; ++lane_477) {
                                                                                                                int64_t t478 = iv_476 + lane_477;
                                                                                                                int64_t t479 = t473 + i0_475;
                                                                                                                int64_t t480 = t474 + t478;
                                                                                                                int64_t t481 = (int64_t)((uint64_t)t480 + (uint64_t)INT64_C(-1));
                                                                                                                int64_t t482 = t481;
                                                                                                                int64_t t483 = t482 + ((t482 >> 63) & b0_d1);
                                                                                                                int64_t t484 = t479;
                                                                                                                int64_t t485 = t484 + ((t484 >> 63) & b0_d0);
                                                                                                                int64_t t486 = t483 * b0_s1 + t485 * b0_s0;
                                                                                                                uint8_t t487 = b0[t486];
                                                                                                                int64_t t488 = (int64_t)t487;
                                                                                                                int64_t t489 = (int64_t)(uint32_t)(t488);
                                                                                                                int64_t t490 = (int64_t)((uint64_t)t480 + (uint64_t)INT64_C(1));
                                                                                                                int64_t t491 = t490;
                                                                                                                int64_t t492 = t491 + ((t491 >> 63) & b0_d1);
                                                                                                                int64_t t493 = t479;
                                                                                                                int64_t t494 = t493 + ((t493 >> 63) & b0_d0);
                                                                                                                int64_t t495 = t492 * b0_s1 + t494 * b0_s0;
                                                                                                                uint8_t t496 = b0[t495];
                                                                                                                int64_t t497 = (int64_t)t496;
                                                                                                                int64_t t498 = (int64_t)(uint32_t)(t497);
                                                                                                                int64_t t499 = (int64_t)((uint64_t)t489 + (uint64_t)t498);
                                                                                                                int64_t t500 = t480;
                                                                                                                int64_t t501 = t500 + ((t500 >> 63) & b0_d1);
                                                                                                                int64_t t502 = t479;
                                                                                                                int64_t t503 = t502 + ((t502 >> 63) & b0_d0);
                                                                                                                int64_t t504 = t501 * b0_s1 + t503 * b0_s0;
                                                                                                                uint8_t t505 = b0[t504];
                                                                                                                int64_t t506 = (int64_t)t505;
                                                                                                                int64_t t507 = (int64_t)(uint32_t)(t506);
                                                                                                                int64_t t508 = (int64_t)((uint64_t)t499 + (uint64_t)t507);
                                                                                                                int64_t t509 = (t508) >> ((INT64_C(1)) & 63);
                                                                                                                int64_t t510 = (int64_t)(uint8_t)(t509);
                                                                                                                int64_t t511 = (int64_t)(uint8_t)(t510);
                                                                                                                int64_t t512 = (t464 + i0_475) * t64 + (t466 + t478) * t63;
                                                                                                                a_bx_scratch_0[t512] = (uint8_t)(t511);
                                                                                                            }
                                                                                                        }
                                                                                                        for (int64_t tail_513 = iv_476; tail_513 < t472; ++tail_513) {
                                                                                                            int64_t t514 = t473 + i0_475;
                                                                                                            int64_t t515 = t474 + tail_513;
                                                                                                            int64_t t516 = (int64_t)((uint64_t)t515 + (uint64_t)INT64_C(-1));
                                                                                                            int64_t t517 = t516;
                                                                                                            int64_t t518 = t517 + ((t517 >> 63) & b0_d1);
                                                                                                            int64_t t519 = t514;
                                                                                                            int64_t t520 = t519 + ((t519 >> 63) & b0_d0);
                                                                                                            int64_t t521 = t518 * b0_s1 + t520 * b0_s0;
                                                                                                            uint8_t t522 = b0[t521];
                                                                                                            int64_t t523 = (int64_t)t522;
                                                                                                            int64_t t524 = (int64_t)(uint32_t)(t523);
                                                                                                            int64_t t525 = (int64_t)((uint64_t)t515 + (uint64_t)INT64_C(1));
                                                                                                            int64_t t526 = t525;
                                                                                                            int64_t t527 = t526 + ((t526 >> 63) & b0_d1);
                                                                                                            int64_t t528 = t514;
                                                                                                            int64_t t529 = t528 + ((t528 >> 63) & b0_d0);
                                                                                                            int64_t t530 = t527 * b0_s1 + t529 * b0_s0;
                                                                                                            uint8_t t531 = b0[t530];
                                                                                                            int64_t t532 = (int64_t)t531;
                                                                                                            int64_t t533 = (int64_t)(uint32_t)(t532);
                                                                                                            int64_t t534 = (int64_t)((uint64_t)t524 + (uint64_t)t533);
                                                                                                            int64_t t535 = t515;
                                                                                                            int64_t t536 = t535 + ((t535 >> 63) & b0_d1);
                                                                                                            int64_t t537 = t514;
                                                                                                            int64_t t538 = t537 + ((t537 >> 63) & b0_d0);
                                                                                                            int64_t t539 = t536 * b0_s1 + t538 * b0_s0;
                                                                                                            uint8_t t540 = b0[t539];
                                                                                                            int64_t t541 = (int64_t)t540;
                                                                                                            int64_t t542 = (int64_t)(uint32_t)(t541);
                                                                                                            int64_t t543 = (int64_t)((uint64_t)t534 + (uint64_t)t542);
                                                                                                            int64_t t544 = (t543) >> ((INT64_C(1)) & 63);
                                                                                                            int64_t t545 = (int64_t)(uint8_t)(t544);
                                                                                                            int64_t t546 = (int64_t)(uint8_t)(t545);
                                                                                                            int64_t t547 = (t464 + i0_475) * t64 + (t466 + tail_513) * t63;
                                                                                                            a_bx_scratch_0[t547] = (uint8_t)(t546);
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                        }
                                                                                        { /* pad_edge bx.scratch#0 */
                                                                                            int64_t t548 = v_s0_coff0;
                                                                                            int64_t t549 = v_s0_coff1;
                                                                                            int64_t t550 = v_s0_ce0;
                                                                                            int64_t t551 = v_s0_ce1;
                                                                                            int64_t t552 = t548 + t550;
                                                                                            if (t548 > 0) {
                                                                                                {
                                                                                                    for (int64_t p0 = 0; p0 < t548; ++p0) {
                                                                                                        for (int64_t p1 = 0; p1 < t61; ++p1) {
                                                                                                            int64_t t553 = p0 * t64 + p1 * t63;
                                                                                                            int64_t t554 = t548 * t64 + p1 * t63;
                                                                                                            a_bx_scratch_0[t553] = a_bx_scratch_0[t554];
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                            if (t60 > t552) {
                                                                                                {
                                                                                                    for (int64_t p0_555 = t552; p0_555 < t60; ++p0_555) {
                                                                                                        for (int64_t p1_556 = 0; p1_556 < t61; ++p1_556) {
                                                                                                            int64_t t557 = p0_555 * t64 + p1_556 * t63;
                                                                                                            int64_t t558 = (t552 - 1) * t64 + p1_556 * t63;
                                                                                                            a_bx_scratch_0[t557] = a_bx_scratch_0[t558];
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                            int64_t t559 = t549 + t551;
                                                                                            if (t549 > 0) {
                                                                                                {
                                                                                                    for (int64_t p0_560 = 0; p0_560 < t60; ++p0_560) {
                                                                                                        for (int64_t p1_561 = 0; p1_561 < t549; ++p1_561) {
                                                                                                            int64_t t562 = p0_560 * t64 + p1_561 * t63;
                                                                                                            int64_t t563 = p0_560 * t64 + t549 * t63;
                                                                                                            a_bx_scratch_0[t562] = a_bx_scratch_0[t563];
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                            if (t61 > t559) {
                                                                                                {
                                                                                                    for (int64_t p0_564 = 0; p0_564 < t60; ++p0_564) {
                                                                                                        for (int64_t p1_565 = t559; p1_565 < t61; ++p1_565) {
                                                                                                            int64_t t566 = p0_564 * t64 + p1_565 * t63;
                                                                                                            int64_t t567 = p0_564 * t64 + (t559 - 1) * t63;
                                                                                                            a_bx_scratch_0[t566] = a_bx_scratch_0[t567];
                                                                                                        }
                                                                                                    }
                                                                                                }
                                                                                            }
                                                                                        }
                                                                                        /* consume bx */
                                                                                        { /* store consume */
                                                                                            int64_t t568 = v_s1_oy;
                                                                                            int64_t t569 = v_s1_ox;
                                                                                            int64_t t570 = v_s1_ey;
                                                                                            int64_t t571 = v_s1_ex;
                                                                                            int64_t t572 = INT64_C(0);
                                                                                            int64_t t573 = INT64_C(0);
                                                                                            if (t570 > 0 && t571 > 0) {
                                                                                                if (t573 < -t61 || (t573 + t571 - 1) >= t61) { return 4; }
                                                                                                if ((t572 + INT64_C(1)) < -t60 || ((t572 + t570 - 1) + INT64_C(1)) >= t60) { return 4; }
                                                                                                if ((t572 + INT64_C(2)) < -t60 || ((t572 + t570 - 1) + INT64_C(2)) >= t60) { return 4; }
                                                                                                if (t572 < -t60 || (t572 + t570 - 1) >= t60) { return 4; }
                                                                                                for (int64_t i0_574 = 0; i0_574 < t570; ++i0_574) {
                                                                                                    int64_t iv_575 = 0;
                                                                                                    for (; iv_575 + 8 <= t571; iv_575 += 8) {
                                                                                                        #pragma GCC ivdep
                                                                                                        for (int64_t lane_576 = 0; lane_576 < 8; ++lane_576) {
                                                                                                            int64_t t577 = iv_575 + lane_576;
                                                                                                            int64_t t578 = t572 + i0_574;
                                                                                                            int64_t t579 = t573 + t577;
                                                                                                            int64_t t580 = t579;
                                                                                                            int64_t t581 = t580 + ((t580 >> 63) & t61);
                                                                                                            int64_t t582 = (int64_t)((uint64_t)t578 + (uint64_t)INT64_C(1));
                                                                                                            int64_t t583 = t582;
                                                                                                            int64_t t584 = t583 + ((t583 >> 63) & t60);
                                                                                                            int64_t t585 = t581 * t63 + t584 * t64;
                                                                                                            uint8_t t586 = a_bx_scratch_0[t585];
                                                                                                            int64_t t587 = (int64_t)t586;
                                                                                                            int64_t t588 = (int64_t)(uint32_t)(t587);
                                                                                                            int64_t t589 = t579;
                                                                                                            int64_t t590 = t589 + ((t589 >> 63) & t61);
                                                                                                            int64_t t591 = (int64_t)((uint64_t)t578 + (uint64_t)INT64_C(2));
                                                                                                            int64_t t592 = t591;
                                                                                                            int64_t t593 = t592 + ((t592 >> 63) & t60);
                                                                                                            int64_t t594 = t590 * t63 + t593 * t64;
                                                                                                            uint8_t t595 = a_bx_scratch_0[t594];
                                                                                                            int64_t t596 = (int64_t)t595;
                                                                                                            int64_t t597 = (int64_t)(uint32_t)(t596);
                                                                                                            int64_t t598 = (int64_t)((uint64_t)t588 + (uint64_t)t597);
                                                                                                            int64_t t599 = t579;
                                                                                                            int64_t t600 = t599 + ((t599 >> 63) & t61);
                                                                                                            int64_t t601 = t578;
                                                                                                            int64_t t602 = t601 + ((t601 >> 63) & t60);
                                                                                                            int64_t t603 = t600 * t63 + t602 * t64;
                                                                                                            uint8_t t604 = a_bx_scratch_0[t603];
                                                                                                            int64_t t605 = (int64_t)t604;
                                                                                                            int64_t t606 = (int64_t)(uint32_t)(t605);
                                                                                                            int64_t t607 = (int64_t)((uint64_t)t598 + (uint64_t)t606);
                                                                                                            int64_t t608 = (t607) >> ((INT64_C(1)) & 63);
                                                                                                            int64_t t609 = (int64_t)(uint8_t)(t608);
                                                                                                            int64_t t610 = (int64_t)(uint8_t)(t609);
                                                                                                            int64_t t611 = (t568 + i0_574) * b1_s0 + (t569 + t577) * b1_s1;
                                                                                                            b1[t611] = (uint8_t)(t610);
                                                                                                        }
                                                                                                    }
                                                                                                    for (int64_t tail_612 = iv_575; tail_612 < t571; ++tail_612) {
                                                                                                        int64_t t613 = t572 + i0_574;
                                                                                                        int64_t t614 = t573 + tail_612;
                                                                                                        int64_t t615 = t614;
                                                                                                        int64_t t616 = t615 + ((t615 >> 63) & t61);
                                                                                                        int64_t t617 = (int64_t)((uint64_t)t613 + (uint64_t)INT64_C(1));
                                                                                                        int64_t t618 = t617;
                                                                                                        int64_t t619 = t618 + ((t618 >> 63) & t60);
                                                                                                        int64_t t620 = t616 * t63 + t619 * t64;
                                                                                                        uint8_t t621 = a_bx_scratch_0[t620];
                                                                                                        int64_t t622 = (int64_t)t621;
                                                                                                        int64_t t623 = (int64_t)(uint32_t)(t622);
                                                                                                        int64_t t624 = t614;
                                                                                                        int64_t t625 = t624 + ((t624 >> 63) & t61);
                                                                                                        int64_t t626 = (int64_t)((uint64_t)t613 + (uint64_t)INT64_C(2));
                                                                                                        int64_t t627 = t626;
                                                                                                        int64_t t628 = t627 + ((t627 >> 63) & t60);
                                                                                                        int64_t t629 = t625 * t63 + t628 * t64;
                                                                                                        uint8_t t630 = a_bx_scratch_0[t629];
                                                                                                        int64_t t631 = (int64_t)t630;
                                                                                                        int64_t t632 = (int64_t)(uint32_t)(t631);
                                                                                                        int64_t t633 = (int64_t)((uint64_t)t623 + (uint64_t)t632);
                                                                                                        int64_t t634 = t614;
                                                                                                        int64_t t635 = t634 + ((t634 >> 63) & t61);
                                                                                                        int64_t t636 = t613;
                                                                                                        int64_t t637 = t636 + ((t636 >> 63) & t60);
                                                                                                        int64_t t638 = t635 * t63 + t637 * t64;
                                                                                                        uint8_t t639 = a_bx_scratch_0[t638];
                                                                                                        int64_t t640 = (int64_t)t639;
                                                                                                        int64_t t641 = (int64_t)(uint32_t)(t640);
                                                                                                        int64_t t642 = (int64_t)((uint64_t)t633 + (uint64_t)t641);
                                                                                                        int64_t t643 = (t642) >> ((INT64_C(1)) & 63);
                                                                                                        int64_t t644 = (int64_t)(uint8_t)(t643);
                                                                                                        int64_t t645 = (int64_t)(uint8_t)(t644);
                                                                                                        int64_t t646 = (t568 + i0_574) * b1_s0 + (t569 + tail_612) * b1_s1;
                                                                                                        b1[t646] = (uint8_t)(t645);
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
