/**
 * @file
 * 2-D convolution with stride, zero padding and channel groups through
 * the kernel-dispatch backend. Which path a shape takes:
 *
 *  - one input channel per group (in_ch == groups: depthwise at any
 *    channel multiplier, which includes a single-channel ungrouped
 *    input) runs the direct stencil kernels::dwconv_forward/backward
 *    per sample: no column buffer and no GEMM, and on each kernel
 *    table the same bits the im2col + direct GEMM path produced;
 *  - 1x1/stride-1/no-pad convolutions multiply the input directly;
 *  - every other shape unfolds each (sample, group) with im2col and
 *    runs one GEMM against the {out_ch/g, in_ch/g * k * k} weight view
 *    (bias pre-filled, GEMM accumulating on top: the same reduction
 *    order as the original direct loops). Backward recomputes the
 *    column buffer (cheaper than caching the k^2x blow-up) for dW and
 *    folds the W^T dy product back with col2im_add.
 *
 * Ungrouped layers pack W once per batch; batched inference of an
 * ungrouped, non-pointwise, non-depthwise layer gathers the whole batch
 * into one wide GEMM.
 */
#ifndef AUTOFL_NN_CONV2D_H
#define AUTOFL_NN_CONV2D_H

#include "kernels/kernels.h"
#include "nn/layer.h"

namespace autofl {

/** Grouped 2-D convolution over {batch, channels, h, w} tensors. */
class Conv2D : public Layer
{
  public:
    /**
     * @param in_ch Input channels.
     * @param out_ch Output channels (must be divisible by @p groups).
     * @param kernel Square kernel size.
     * @param stride Stride in both dimensions.
     * @param pad Zero padding in both dimensions.
     * @param groups Channel groups; in_ch and out_ch must divide evenly.
     */
    Conv2D(int in_ch, int out_ch, int kernel, int stride = 1, int pad = 0,
           int groups = 1);

    Tensor forward(Tensor x) override;
    Tensor infer(Tensor x) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<Tensor *> params() override { return {&w_, &b_}; }
    std::vector<Tensor *> grads() override { return {&dw_, &db_}; }
    void init_weights(Rng &rng) override;
    std::vector<int> output_shape(const std::vector<int> &in) const override;
    double flops_per_sample(const std::vector<int> &in) const override;
    LayerKind kind() const override { return LayerKind::Conv; }
    std::string name() const override;

  private:
    int in_ch_, out_ch_, k_, stride_, pad_, groups_;
    Tensor w_;  ///< {out_ch, in_ch/groups, k, k}
    Tensor b_;  ///< {out_ch}
    Tensor dw_;
    Tensor db_;
    Tensor x_cache_;   ///< Moved-in input (backward re-unfolds it).
    AlignedFloatVec col_;   ///< im2col scratch, reused across samples.
    AlignedFloatVec dcol_;  ///< Backward column-gradient scratch.
    AlignedFloatVec colw_;  ///< Batch-wide column buffer (infer only).
    AlignedFloatVec outw_;  ///< Batch-wide output buffer (infer only).

    /** Shared per-sample body of forward() and infer(). */
    Tensor convolve(const Tensor &xin);

    /** db += per-channel sums of one sample's dy {out_ch, ospatial}. */
    void accumulate_db(const float *dy, int ospatial);

    /** One input channel per group: the direct stencil path. */
    bool depthwise() const { return groups_ > 1 && in_ch_ == groups_; }

    /** The stencil kernels' geometry for an ih x iw input. */
    kernels::DwConvShape dw_shape(int ih, int iw) const;

    /** Whether im2col is the identity (pointwise convolution). */
    bool pointwise() const
    {
        return k_ == 1 && stride_ == 1 && pad_ == 0;
    }

    /**
     * Output spatial size for input spatial size @p s. Delegates to the
     * kernel layer's formula so the layer and im2col/col2im can never
     * disagree about the column-buffer geometry.
     */
    int out_size(int s) const
    {
        return kernels::conv_out_size(s, k_, stride_, pad_);
    }
};

} // namespace autofl

#endif // AUTOFL_NN_CONV2D_H
