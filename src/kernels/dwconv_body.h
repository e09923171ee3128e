/**
 * @file
 * The depthwise-convolution family: one body, instantiated per kernel
 * table over the table's GEMM lane count. A convolution with one input
 * channel per group used to run each (sample, group) through im2col, a
 * direct GEMM with M = multiplier and K = k * k, gemm_nt for dW,
 * gemm_tn and col2im_add for dx. These loops reproduce that
 * computation's operation sequence per output element, so each table
 * gets the same bits without the per-plane calls and column buffers:
 *
 *  - forward: y starts at the bias, taps follow in ascending (ky, kx)
 *    order. Elements whose flat plane index lies in a full L-wide
 *    column block take a fused multiply-add; the `oh*ow mod L` tail
 *    takes a multiply then an add (the GEMM's tail_cols). The scalar
 *    instantiation (L = 0) multiplies then adds everywhere and skips
 *    zero weights, like scalar_gemm.
 *  - dW: gemm_nt's order. Per tap, L fused lane partial sums over the
 *    flat plane (lane l owns the indices = l mod L), combined in the
 *    table's hsum tree, then the unfused tail, then one add into dW
 *    per call (one call per sample). Scalar: one unfused running sum.
 *  - dx: the tap's column value (the multiplier chain of gemm_tn,
 *    fused in the full blocks, starting from zero) is added into dx,
 *    taps in ascending order, exactly as col2im_add folds it.
 *
 * The loops run on a "wide" grid (see Grid): the padded input split
 * into stride phases, so every tap is one contiguous run and no loop
 * tests bounds. Padding taps read the grid's zero border, entering
 * every chain as the +0.0f entries im2col wrote; the grid's scratch
 * columns only ever add exact zeros (for finite inputs) and never
 * reach an output.
 *
 * Internal to src/kernels/: included by the TUs that instantiate it,
 * each compiled with -ffp-contract=off so the unfused steps stay
 * unfused.
 */
#ifndef AUTOFL_KERNELS_DWCONV_BODY_H
#define AUTOFL_KERNELS_DWCONV_BODY_H

#include <algorithm>
#include <cmath>
#include <vector>

#include "kernels/kernels.h"

namespace autofl::kernels::dwconv {

/**
 * A table's lanes: L, its vector type V with zero/load/store, the
 * GEMM's fused multiply-add fma(a, b, c) = a * b + c, and hsum(V) in
 * the GEMM's lane-combining tree. ScalarLanes (L = 0) has none of
 * them: the scalar instantiation multiplies and adds in plain floats.
 */
struct ScalarLanes
{
    static constexpr int L = 0;
};

/** dst[0, n) = src[0, n), in whole vectors where the lanes allow. */
template <class Lanes>
inline void
copy_run(float *dst, const float *src, int n)
{
    int i = 0;
    if constexpr (Lanes::L > 0)
        for (; i + Lanes::L <= n; i += Lanes::L)
            Lanes::store(dst + i, Lanes::load(src + i));
    for (; i < n; ++i)
        dst[i] = src[i];
}

/**
 * The stencil's "wide" grid. The zero-padded input plane is split into
 * stride x stride phase planes of `rows x pitch` (phase (a, b) holds
 * padded pixel (r * stride + a, c * stride + b) at r * pitch + c), so
 * tap (ky, kx) of output (oy, ox) is element i + offset(ky, kx) of
 * phase (ky % stride, kx % stride), with i = oy * pitch + ox. Every tap
 * is then one contiguous run over i in [0, end); the columns
 * ox >= ow of that range are scratch and never reach the output.
 *
 * The pitch is also congruent to ow mod L, so i = j (mod L) for the
 * compact output index j = oy * ow + ox: gemm_nt's lane l (the j = l
 * mod L) is the wide run's lane l, and dW's lane sums run over the
 * wide grid directly. Scratch columns carry dy = +0 there, so their
 * terms add zeros.
 */
template <class Lanes>
struct Grid
{
    int oh, ow, ospatial;
    int pitch, rows, end;
    size_t phase_size;

    explicit Grid(const DwConvShape &s)
    {
        oh = conv_out_size(s.ih, s.k, s.stride, s.pad);
        ow = conv_out_size(s.iw, s.k, s.stride, s.pad);
        ospatial = oh * ow;
        pitch = (s.iw + 2 * s.pad + s.stride - 1) / s.stride;
        if constexpr (Lanes::L > 0)
            pitch += ((ow - pitch) % Lanes::L + Lanes::L) % Lanes::L;
        rows = (s.ih + 2 * s.pad + s.stride - 1) / s.stride;
        end = (oh - 1) * pitch + ow;
        phase_size = static_cast<size_t>(rows) * pitch;
    }

    /** Wide index of compact output index j, clamped to end. */
    int wide(int j) const
    {
        return std::min(j / ow * pitch + j % ow, end);
    }

    /** Offset of tap (ky, kx) inside the phase buffer. */
    size_t tap(const DwConvShape &s, int ky, int kx) const
    {
        return static_cast<size_t>((ky % s.stride) * s.stride +
                                   kx % s.stride) * phase_size +
            static_cast<size_t>(ky / s.stride) * pitch + kx / s.stride;
    }

    /**
     * Phase-buffer offset of input pixel (iy, 0)'s row on phase column
     * @p b: the pixels ix = first_col(b) + n * stride of that row follow
     * it contiguously.
     */
    size_t row_run(const DwConvShape &s, int iy, int b) const
    {
        return tap(s, iy + s.pad, first_col(s, b) + s.pad);
    }

    /** First input column ix with (ix + pad) % stride == b. */
    static int first_col(const DwConvShape &s, int b)
    {
        return ((b - s.pad) % s.stride + s.stride) % s.stride;
    }

    /** Phase-split copy of plane @p x with its zero border. */
    void split(const DwConvShape &s, const float *x,
               std::vector<float> &buf) const
    {
        buf.assign(phase_size * s.stride * s.stride, 0.0f);
        for (int iy = 0; iy < s.ih; ++iy) {
            const float *xrow = x + static_cast<size_t>(iy) * s.iw;
            if (s.stride == 1) {
                copy_run<Lanes>(buf.data() + row_run(s, iy, 0), xrow, s.iw);
                continue;
            }
            for (int b = 0; b < s.stride; ++b) {
                float *dst = buf.data() + row_run(s, iy, b);
                for (int ix = first_col(s, b); ix < s.iw; ix += s.stride)
                    *dst++ = xrow[ix];
            }
        }
    }

    /** Inverse of split() over the plane's interior: x = phases. */
    void merge(const DwConvShape &s, const std::vector<float> &buf,
               float *x) const
    {
        for (int iy = 0; iy < s.ih; ++iy) {
            float *xrow = x + static_cast<size_t>(iy) * s.iw;
            if (s.stride == 1) {
                copy_run<Lanes>(xrow, buf.data() + row_run(s, iy, 0), s.iw);
                continue;
            }
            for (int b = 0; b < s.stride; ++b) {
                const float *src = buf.data() + row_run(s, iy, b);
                for (int ix = first_col(s, b); ix < s.iw; ix += s.stride)
                    xrow[ix] = *src++;
            }
        }
    }
};

/** First compact index of the unfused tail (0 for scalar: none fused). */
template <class Lanes>
inline int
fused_end(int ospatial)
{
    if constexpr (Lanes::L == 0)
        return 0;
    else
        return ospatial - ospatial % Lanes::L;
}

template <class Lanes>
void
forward(const DwConvShape &s, const float *x, const float *w,
        const float *bias, float *y)
{
    const Grid<Lanes> g(s);
    const int kk = s.k * s.k;
    const int wfull = g.wide(fused_end<Lanes>(g.ospatial));
    thread_local std::vector<float> xs;
    thread_local std::vector<float> acc;
    acc.resize(static_cast<size_t>(g.end));
    float *yw = acc.data();
    for (int c = 0; c < s.channels; ++c) {
        g.split(s, x + static_cast<size_t>(c) * s.ih * s.iw, xs);
        for (int m = 0; m < s.mult; ++m) {
            const int oc = c * s.mult + m;
            const float *wk = w + static_cast<size_t>(oc) * kk;
            std::fill(yw, yw + g.end, bias[oc]);
            for (int ky = 0; ky < s.k; ++ky) {
                for (int kx = 0; kx < s.k; ++kx) {
                    const float wv = wk[ky * s.k + kx];
                    if (Lanes::L == 0 && wv == 0.0f)
                        continue;
                    const float *src = xs.data() + g.tap(s, ky, kx);
                    for (int i = 0; i < wfull; ++i)
                        yw[i] = std::fma(wv, src[i], yw[i]);
                    for (int i = wfull; i < g.end; ++i)
                        yw[i] += wv * src[i];
                }
            }
            float *yp = y + static_cast<size_t>(oc) * g.ospatial;
            for (int oy = 0; oy < g.oh; ++oy)
                copy_run<Lanes>(yp + static_cast<size_t>(oy) * g.ow,
                                yw + static_cast<size_t>(oy) * g.pitch, g.ow);
        }
    }
}

template <class Lanes>
void
backward(const DwConvShape &s, const float *x, const float *w,
         const float *dy, float *dx, float *dw)
{
    constexpr int L = Lanes::L;
    const Grid<Lanes> g(s);
    const int kk = s.k * s.k;
    const int osp = g.ospatial;
    const int nfull = fused_end<Lanes>(osp);
    const int wfull = g.wide(nfull);
    thread_local std::vector<float> xs;   // x on the phase planes.
    thread_local std::vector<float> dyw;  // dy on the wide grid.
    thread_local std::vector<float> dxs;  // dx on the phase planes.
    dyw.assign(static_cast<size_t>(s.mult) * g.end, 0.0f);
    for (int c = 0; c < s.channels; ++c) {
        const float *dyc = dy + static_cast<size_t>(c) * s.mult * osp;
        const float *wc = w + static_cast<size_t>(c) * s.mult * kk;
        float *dwc = dw + static_cast<size_t>(c) * s.mult * kk;
        g.split(s, x + static_cast<size_t>(c) * s.ih * s.iw, xs);
        // dy on the wide grid; its scratch columns stay +0.
        for (int m = 0; m < s.mult; ++m)
            for (int oy = 0; oy < g.oh; ++oy)
                copy_run<Lanes>(dyw.data() + static_cast<size_t>(m) * g.end +
                                    static_cast<size_t>(oy) * g.pitch,
                                dyc + static_cast<size_t>(m) * osp +
                                    static_cast<size_t>(oy) * g.ow,
                                g.ow);

        // dW in gemm_nt's order: per tap, the lane sums over the tap's
        // run (the im2col row, padding zeros included, with the +0 dy
        // of the scratch columns in between), the hsum, the unfused
        // tail, one add into dW.
        for (int m = 0; m < s.mult; ++m) {
            const float *dym = dyw.data() + static_cast<size_t>(m) * g.end;
            for (int t = 0; t < kk; ++t) {
                const float *src = xs.data() + g.tap(s, t / s.k, t % s.k);
                float d;
                if constexpr (L == 0) {
                    d = 0.0f;
                    for (int i = 0; i < g.end; ++i)
                        d += dym[i] * src[i];
                } else {
                    typename Lanes::V acc = Lanes::zero();
                    for (int i = 0; i < wfull; i += L)
                        acc = Lanes::fma(Lanes::load(dym + i),
                                         Lanes::load(src + i), acc);
                    d = Lanes::hsum(acc);
                    for (int i = wfull; i < g.end; ++i)
                        d += dym[i] * src[i];
                }
                dwc[static_cast<size_t>(m) * kk + t] += d;
            }
        }

        // dx: each tap's column value (gemm_tn's chain over the
        // multiplier, from zero) folds onto the pixel it read, taps in
        // ascending order as in col2im_add; padding pixels are dropped.
        dxs.assign(g.phase_size * s.stride * s.stride, 0.0f);
        for (int ky = 0; ky < s.k; ++ky) {
            for (int kx = 0; kx < s.k; ++kx) {
                const int t = ky * s.k + kx;
                float *dst = dxs.data() + g.tap(s, ky, kx);
                if (s.mult == 1) {
                    // The general loops' one-step chain, in a form the
                    // compiler vectorizes (every MobileNet layer).
                    const float wv = wc[t];
                    const float *gw = dyw.data();
                    for (int i = 0; i < wfull; ++i)
                        dst[i] += std::fma(wv, gw[i], 0.0f);
                    if (L == 0 && wv == 0.0f) {
                        for (int i = wfull; i < g.end; ++i)
                            dst[i] += 0.0f;
                    } else {
                        for (int i = wfull; i < g.end; ++i)
                            dst[i] += 0.0f + wv * gw[i];
                    }
                    continue;
                }
                for (int i = 0; i < wfull; ++i) {
                    float v = 0.0f;
                    for (int m = 0; m < s.mult; ++m)
                        v = std::fma(wc[static_cast<size_t>(m) * kk + t],
                                     dyw[static_cast<size_t>(m) * g.end + i],
                                     v);
                    dst[i] += v;
                }
                for (int i = wfull; i < g.end; ++i) {
                    float v = 0.0f;
                    for (int m = 0; m < s.mult; ++m) {
                        const float wv = wc[static_cast<size_t>(m) * kk + t];
                        if (L == 0 && wv == 0.0f)
                            continue;
                        v += wv * dyw[static_cast<size_t>(m) * g.end + i];
                    }
                    dst[i] += v;
                }
            }
        }
        g.merge(s, dxs, dx + static_cast<size_t>(c) * s.ih * s.iw);
    }
}

} // namespace autofl::kernels::dwconv

#endif // AUTOFL_KERNELS_DWCONV_BODY_H
