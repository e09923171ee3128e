#include "conv2d.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "kernels/kernels.h"

namespace autofl {

Conv2D::Conv2D(int in_ch, int out_ch, int kernel, int stride, int pad,
               int groups)
    : in_ch_(in_ch), out_ch_(out_ch), k_(kernel), stride_(stride), pad_(pad),
      groups_(groups),
      w_({out_ch, in_ch / groups, kernel, kernel}),
      b_({out_ch}),
      dw_({out_ch, in_ch / groups, kernel, kernel}),
      db_({out_ch})
{
    assert(in_ch_ % groups_ == 0 && out_ch_ % groups_ == 0);
}

void
Conv2D::init_weights(Rng &rng)
{
    // He-normal: suits the ReLU activations that follow every conv.
    const int fan_in = (in_ch_ / groups_) * k_ * k_;
    const float std = std::sqrt(2.0f / static_cast<float>(fan_in));
    for (size_t i = 0; i < w_.size(); ++i)
        w_[i] = static_cast<float>(rng.normal(0.0, std));
    b_.fill(0.0f);
}

Tensor
Conv2D::forward(Tensor x)
{
    assert(x.rank() == 4 && x.dim(1) == in_ch_);
    x_cache_ = std::move(x);  // Backward re-unfolds the input for dW.
    return convolve(x_cache_);
}

Tensor
Conv2D::infer(Tensor x)
{
    assert(x.rank() == 4 && x.dim(1) == in_ch_);
    const int batch = x.dim(0);
    // Grouped convolutions stay per-sample: depthwise ones run the
    // direct stencil, and the other grouped GEMMs are so small that
    // gathering a wide column buffer costs more than the GEMM saves.
    // Pointwise convs skip the wide gather too: convolve() needs no
    // unfold for them and packs W's panels once for the whole batch,
    // so the gather and the output un-scatter would add the only
    // copies in the pipeline (the MobileNet batched-throughput
    // regression came from exactly those copies).
    if (batch == 1 || groups_ > 1 || pointwise())
        return convolve(x);

    // Batched inference (ungrouped, non-pointwise by the guard above):
    // gather every sample's columns into one wide
    // {patch, batch * ospatial} buffer and convolve the whole batch
    // with a single GEMM — batch tiny per-sample GEMMs become one call
    // with a wide N. Each output element is still the same ascending-k
    // dot product on top of the pre-filled bias, so the result is
    // bit-identical to the per-sample path on the scalar arch.
    const int ih = x.dim(2), iw = x.dim(3);
    const int oh = out_size(ih), ow = out_size(iw);
    const int patch = in_ch_ * k_ * k_;
    const int ospatial = oh * ow;
    const size_t cols = static_cast<size_t>(batch) * ospatial;
    const size_t row_bytes = sizeof(float) * static_cast<size_t>(ospatial);
    Tensor y({batch, out_ch_, oh, ow});

    col_.resize(static_cast<size_t>(patch) * ospatial);
    colw_.resize(static_cast<size_t>(patch) * cols);
    outw_.resize(static_cast<size_t>(out_ch_) * cols);

    for (int n = 0; n < batch; ++n) {
        const float *xn = x.data() +
            static_cast<size_t>(n) * in_ch_ * ih * iw;
        kernels::im2col(xn, in_ch_, ih, iw, k_, stride_, pad_,
                        col_.data());
        for (int r = 0; r < patch; ++r) {
            std::memcpy(colw_.data() + static_cast<size_t>(r) * cols +
                            static_cast<size_t>(n) * ospatial,
                        col_.data() + static_cast<size_t>(r) * ospatial,
                        row_bytes);
        }
    }
    for (int oc = 0; oc < out_ch_; ++oc) {
        const float bias = b_[static_cast<size_t>(oc)];
        float *orow = outw_.data() + static_cast<size_t>(oc) * cols;
        for (size_t i = 0; i < cols; ++i)
            orow[i] = bias;
    }
    kernels::gemm(out_ch_, static_cast<int>(cols), patch, w_.data(), patch,
                  colw_.data(), static_cast<int>(cols), outw_.data(),
                  static_cast<int>(cols), /*accumulate=*/true);
    for (int n = 0; n < batch; ++n) {
        for (int oc = 0; oc < out_ch_; ++oc) {
            std::memcpy(y.data() +
                            (static_cast<size_t>(n) * out_ch_ + oc) *
                                ospatial,
                        outw_.data() + static_cast<size_t>(oc) * cols +
                            static_cast<size_t>(n) * ospatial,
                        row_bytes);
        }
    }
    return y;
}

kernels::DwConvShape
Conv2D::dw_shape(int ih, int iw) const
{
    return kernels::DwConvShape{in_ch_, out_ch_ / groups_, ih, iw, k_,
                                stride_, pad_};
}

Tensor
Conv2D::convolve(const Tensor &xin)
{
    const int batch = xin.dim(0), ih = xin.dim(2), iw = xin.dim(3);
    const int oh = out_size(ih), ow = out_size(iw);
    const int icg = in_ch_ / groups_, ocg = out_ch_ / groups_;
    const int patch = icg * k_ * k_;
    const int ospatial = oh * ow;
    Tensor y({batch, out_ch_, oh, ow});

    if (depthwise()) {
        const kernels::DwConvShape s = dw_shape(ih, iw);
        for (int n = 0; n < batch; ++n)
            kernels::dwconv_forward(
                s, xin.data() + static_cast<size_t>(n) * in_ch_ * ih * iw,
                w_.data(), b_.data(),
                y.data() + static_cast<size_t>(n) * out_ch_ * ospatial);
        return y;
    }

    if (!pointwise())
        col_.resize(static_cast<size_t>(patch) * ospatial);

    // Ungrouped layers share one W across the whole batch: pack its
    // panels once and let every per-sample GEMM reuse them. Grouped
    // weights are per-group slices too small to pay for packing.
    kernels::PackedGemm wp;
    if (groups_ == 1)
        wp = kernels::pack_gemm_a(ocg, patch, w_.data(), patch);

    for (int n = 0; n < batch; ++n) {
        for (int g = 0; g < groups_; ++g) {
            const float *xg = xin.data() +
                (static_cast<size_t>(n) * in_ch_ + g * icg) * ih * iw;
            const float *col = xg;
            if (!pointwise()) {
                kernels::im2col(xg, icg, ih, iw, k_, stride_, pad_,
                                col_.data());
                col = col_.data();
            }
            // Pre-fill the output rows with the bias, then let the GEMM
            // accumulate on top: same bias-first reduction order as the
            // original direct loops.
            float *yg = y.data() +
                (static_cast<size_t>(n) * out_ch_ + g * ocg) * ospatial;
            for (int ocl = 0; ocl < ocg; ++ocl) {
                const float bias = b_[static_cast<size_t>(g * ocg + ocl)];
                float *yrow = yg + static_cast<size_t>(ocl) * ospatial;
                for (int i = 0; i < ospatial; ++i)
                    yrow[i] = bias;
            }
            if (groups_ == 1) {
                kernels::gemm_packed_a(wp, ospatial, col, ospatial, yg,
                                       ospatial, /*accumulate=*/true);
            } else {
                const float *wg =
                    w_.data() + static_cast<size_t>(g) * ocg * patch;
                kernels::gemm(ocg, ospatial, patch, wg, patch, col,
                              ospatial, yg, ospatial, /*accumulate=*/true);
            }
        }
    }
    return y;
}

Tensor
Conv2D::backward(const Tensor &grad_out)
{
    const Tensor &x = x_cache_;
    const int batch = x.dim(0), ih = x.dim(2), iw = x.dim(3);
    const int oh = out_size(ih), ow = out_size(iw);
    const int icg = in_ch_ / groups_, ocg = out_ch_ / groups_;
    const int patch = icg * k_ * k_;
    const int ospatial = oh * ow;
    assert(grad_out.dim(1) == out_ch_ && grad_out.dim(2) == oh &&
           grad_out.dim(3) == ow);
    Tensor dx({batch, in_ch_, ih, iw});

    if (depthwise()) {
        const kernels::DwConvShape s = dw_shape(ih, iw);
        for (int n = 0; n < batch; ++n) {
            const float *dyn =
                grad_out.data() + static_cast<size_t>(n) * out_ch_ * ospatial;
            accumulate_db(dyn, ospatial);
            const size_t xo = static_cast<size_t>(n) * in_ch_ * ih * iw;
            kernels::dwconv_backward(s, x.data() + xo, w_.data(), dyn,
                                     dx.data() + xo, dw_.data());
        }
        return dx;
    }

    if (!pointwise()) {
        col_.resize(static_cast<size_t>(patch) * ospatial);
        dcol_.resize(static_cast<size_t>(patch) * ospatial);
    }

    // The dcol GEMM multiplies W^T against every sample's dy: gather
    // the transposed panels once per backward call. (The dW gemm_nt has
    // no batch-constant operand — both dy and col change per sample.)
    kernels::PackedGemm wpt;
    if (groups_ == 1)
        wpt = kernels::pack_gemm_a(patch, ocg, w_.data(), patch,
                                   /*a_transposed=*/true);

    for (int n = 0; n < batch; ++n) {
        accumulate_db(grad_out.data() +
                          static_cast<size_t>(n) * out_ch_ * ospatial,
                      ospatial);
        for (int g = 0; g < groups_; ++g) {
            const float *dyg = grad_out.data() +
                (static_cast<size_t>(n) * out_ch_ + g * ocg) * ospatial;
            const float *xg = x.data() +
                (static_cast<size_t>(n) * in_ch_ + g * icg) * ih * iw;
            const float *col = xg;
            if (!pointwise()) {
                kernels::im2col(xg, icg, ih, iw, k_, stride_, pad_,
                                col_.data());
                col = col_.data();
            }
            // dW_g += dy_g x col^T.
            float *dwg = dw_.data() + static_cast<size_t>(g) * ocg * patch;
            kernels::gemm_nt(ocg, patch, ospatial, dyg, ospatial, col,
                             ospatial, dwg, patch, /*accumulate=*/true);
            // dcol = W_g^T x dy_g, folded back into dx.
            const float *wg =
                w_.data() + static_cast<size_t>(g) * ocg * patch;
            float *dxg = dx.data() +
                (static_cast<size_t>(n) * in_ch_ + g * icg) * ih * iw;
            float *dcol = pointwise() ? dxg : dcol_.data();
            if (groups_ == 1)
                kernels::gemm_packed_a(wpt, ospatial, dyg, ospatial, dcol,
                                       ospatial);
            else
                kernels::gemm_tn(patch, ospatial, ocg, wg, patch, dyg,
                                 ospatial, dcol, ospatial);
            if (!pointwise())
                kernels::col2im_add(dcol_.data(), icg, ih, iw, k_, stride_,
                                    pad_, dxg);
        }
    }
    return dx;
}

void
Conv2D::accumulate_db(const float *dy, int ospatial)
{
    // Per-channel sums of one sample's output gradient, accumulated in
    // ascending spatial order like the direct loops.
    for (int oc = 0; oc < out_ch_; ++oc) {
        const float *dyrow = dy + static_cast<size_t>(oc) * ospatial;
        float &db = db_[static_cast<size_t>(oc)];
        for (int i = 0; i < ospatial; ++i)
            db += dyrow[i];
    }
}

std::vector<int>
Conv2D::output_shape(const std::vector<int> &in) const
{
    assert(in.size() == 4 && in[1] == in_ch_);
    return {in[0], out_ch_, out_size(in[2]), out_size(in[3])};
}

double
Conv2D::flops_per_sample(const std::vector<int> &in) const
{
    const int oh = out_size(in[2]), ow = out_size(in[3]);
    const double macs = static_cast<double>(out_ch_) * oh * ow *
        (in_ch_ / groups_) * k_ * k_;
    return 2.0 * macs;
}

std::string
Conv2D::name() const
{
    std::ostringstream os;
    os << "Conv2D(" << in_ch_ << "->" << out_ch_ << ", k=" << k_
       << ", s=" << stride_ << ", p=" << pad_ << ", g=" << groups_ << ")";
    return os.str();
}

} // namespace autofl
