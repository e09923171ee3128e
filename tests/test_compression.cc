/**
 * @file
 * Push-path compression tests (src/ps/compression.*, the codec kernel
 * family, and the cluster PushDelta path): per-mode round-trip
 * properties (fp16 within 2^-11 relative, Int8 within half a scale
 * step, TopK exact index recovery), scalar-vs-SIMD bit parity of every
 * codec kernel, error feedback delivering a constant delta in the
 * limit, config validation, typed rejection of malformed encodings,
 * and the headline runtime guarantee: a loopback cluster pushing Int8
 * deltas reproduces the in-process compressed runtime bit for bit.
 */
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "fl/fl_cluster.h"
#include "fl/system.h"
#include "kernels/kernels.h"
#include "ps/compression.h"
#include "ps/ps_server.h"
#include "util/rng.h"

namespace autofl {
namespace {

using kernels::KernelArch;

/** Restores the globally selected kernel arch on scope exit. */
struct ArchGuard
{
    KernelArch saved = kernels::current_kernel_arch();
    ~ArchGuard() { kernels::set_kernel_arch(saved); }
};

bool
simd_available()
{
    return kernels::best_kernel_arch() != KernelArch::Scalar;
}

std::vector<float>
random_delta(size_t n, uint64_t seed, float span = 0.5f)
{
    Rng rng(seed);
    std::vector<float> x(n);
    for (auto &v : x)
        v = rng.uniform(-span, span);
    return x;
}

CompressionConfig
config_for(Compression mode)
{
    CompressionConfig cfg;
    cfg.mode = mode;
    return cfg;
}

// ------------------------------------------------------------- names --

TEST(Compression, NamesRoundTrip)
{
    for (Compression c : {Compression::None, Compression::Fp16,
                          Compression::Int8, Compression::TopK}) {
        Compression parsed = Compression::None;
        EXPECT_TRUE(parse_compression(compression_name(c), &parsed));
        EXPECT_EQ(parsed, c);
    }
    Compression parsed = Compression::None;
    EXPECT_FALSE(parse_compression("gzip", &parsed));
}

// -------------------------------------------------------------- fp16 --

TEST(Compression, Fp16RoundTripWithinHalfUlp)
{
    // binary16 has a 10-bit significand: round-to-nearest costs at most
    // 2^-11 relative error on any normal value.
    const std::vector<float> delta = random_delta(4097, 11, 8.0f);
    EncodedDelta e = encode_delta(config_for(Compression::Fp16), delta);
    EXPECT_EQ(e.payload.size(), 2 * delta.size());
    std::vector<float> out;
    ASSERT_EQ(decode_delta(e, &out), CodecStatus::Ok);
    ASSERT_EQ(out.size(), delta.size());
    for (size_t i = 0; i < delta.size(); ++i) {
        EXPECT_LE(std::fabs(out[i] - delta[i]),
                  std::fabs(delta[i]) * 0x1p-11f)
            << "index " << i << " value " << delta[i];
    }
}

TEST(Compression, Fp16ExhaustiveHalfRoundTrip)
{
    // Every non-NaN binary16 pattern must survive decode -> encode
    // bit-exactly (widening is exact; re-rounding an exactly
    // representable value is the identity). NaNs are excluded: encode
    // quiets signaling NaNs, by design.
    for (uint32_t h = 0; h <= 0xffffu; ++h) {
        const uint16_t in = static_cast<uint16_t>(h);
        if ((in & 0x7c00u) == 0x7c00u && (in & 0x03ffu) != 0)
            continue;  // NaN.
        float f = 0.0f;
        kernels::fp16_decode(1, &in, &f);
        uint16_t back = 0;
        kernels::fp16_encode(1, &f, &back);
        ASSERT_EQ(back, in) << "half pattern 0x" << std::hex << h;
    }
}

TEST(Compression, Fp16EncodesOverflowToInfinityAndKeepsSubnormals)
{
    const float cases[] = {65520.0f,   // Halfway above max half: -> inf.
                           -65520.0f, 65504.0f, 1e-7f, -1e-7f, 0.0f,
                           -0.0f, 5.960464478e-8f};  // Smallest subnormal.
    uint16_t h[8];
    kernels::fp16_encode(8, cases, h);
    EXPECT_EQ(h[0], 0x7c00u);
    EXPECT_EQ(h[1], 0xfc00u);
    EXPECT_EQ(h[2], 0x7bffu);  // Max finite half.
    EXPECT_EQ(h[6] & 0x8000u, 0x8000u);  // -0 keeps its sign.
    float back[8];
    kernels::fp16_decode(8, h, back);
    EXPECT_EQ(back[2], 65504.0f);
    EXPECT_GT(back[3], 0.0f);  // 1e-7 is a half subnormal, not zero.
    EXPECT_EQ(back[7], 5.960464478e-8f);
}

// -------------------------------------------------------------- int8 --

TEST(Compression, Int8ErrorWithinHalfScaleStep)
{
    CompressionConfig cfg = config_for(Compression::Int8);
    cfg.quant_range = 64;
    const std::vector<float> delta = random_delta(1000, 22);
    EncodedDelta e = encode_delta(cfg, delta);
    EXPECT_EQ(e.payload.size(), delta.size());
    ASSERT_EQ(e.scales.size(), (delta.size() + 63) / 64);
    std::vector<float> out;
    ASSERT_EQ(decode_delta(e, &out), CodecStatus::Ok);
    for (size_t i = 0; i < delta.size(); ++i) {
        const float scale = e.scales[i / 64] / 127.0f;
        EXPECT_LE(std::fabs(out[i] - delta[i]),
                  0.5f * scale * (1.0f + 1e-5f))
            << "index " << i;
    }
}

TEST(Compression, Int8DegenerateRangeDecodesToZeros)
{
    // An all-zero range has absmax 0; it must encode to a zero scale
    // and decode to exact zeros, never a divide-by-zero NaN.
    CompressionConfig cfg = config_for(Compression::Int8);
    cfg.quant_range = 8;
    std::vector<float> delta(16, 0.0f);
    delta[12] = 3.0f;  // Second range is live, first is degenerate.
    EncodedDelta e = encode_delta(cfg, delta);
    ASSERT_EQ(e.scales.size(), 2u);
    EXPECT_EQ(e.scales[0], 0.0f);
    std::vector<float> out;
    ASSERT_EQ(decode_delta(e, &out), CodecStatus::Ok);
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(out[i], 0.0f);
    EXPECT_NEAR(out[12], 3.0f, 3.0f / 127.0f);
}

// -------------------------------------------------------------- topk --

TEST(Compression, TopKRecoversExactIndices)
{
    CompressionConfig cfg = config_for(Compression::TopK);
    cfg.topk_fraction = 0.01;  // k = 10 of n = 1000.
    std::vector<float> delta(1000, 0.001f);
    std::vector<size_t> planted = {3, 99, 100, 255, 256, 500, 707,
                                   801, 950, 999};
    for (size_t i = 0; i < planted.size(); ++i)
        delta[planted[i]] = (i % 2 ? -1.0f : 1.0f) * (2.0f + (float)i);
    EncodedDelta e = encode_delta(cfg, delta);
    EXPECT_EQ(e.k, 10u);
    std::vector<float> out;
    ASSERT_EQ(decode_delta(e, &out), CodecStatus::Ok);
    for (size_t i = 0; i < out.size(); ++i) {
        const bool kept = std::find(planted.begin(), planted.end(), i) !=
            planted.end();
        if (kept)
            EXPECT_NEAR(out[i], delta[i], std::fabs(delta[i]) * 0x1p-11f)
                << "index " << i;
        else
            EXPECT_EQ(out[i], 0.0f) << "index " << i;
    }
}

TEST(Compression, TopKTieBreaksTowardLowerIndex)
{
    std::vector<float> x(8, 0.0f);
    x[2] = 1.0f;
    x[5] = -1.0f;  // Same magnitude as x[2].
    x[6] = 1.0f;
    int32_t idx[2] = {-1, -1};
    kernels::topk_select(x.size(), x.data(), 2, idx);
    EXPECT_EQ(idx[0], 2);
    EXPECT_EQ(idx[1], 5);
}

TEST(Compression, TopKSpansMultipleRanges)
{
    // n > 65536 exercises the ranged u16 payload layout: local indices
    // must be rebased per range and reassembled globally.
    CompressionConfig cfg = config_for(Compression::TopK);
    cfg.topk_fraction = 0.001;
    const size_t n = 70000;
    std::vector<float> delta(n, 0.0f);
    std::vector<size_t> planted;
    for (size_t i = 0; i < 70; ++i)
        planted.push_back(i * 999 + 7);  // Spread across both ranges.
    for (size_t p : planted)
        delta[p] = 4.0f;
    EncodedDelta e = encode_delta(cfg, delta);
    EXPECT_EQ(e.k, 70u);
    // 2 ranges * 4-byte count + 70 * (u16 index + binary16 value).
    EXPECT_EQ(e.payload.size(), 2 * 4 + 70 * 4);
    std::vector<float> out;
    ASSERT_EQ(decode_delta(e, &out), CodecStatus::Ok);
    size_t nonzero = 0;
    for (size_t i = 0; i < n; ++i) {
        if (out[i] != 0.0f) {
            ++nonzero;
            EXPECT_EQ(out[i], 4.0f) << "index " << i;
            EXPECT_TRUE(std::find(planted.begin(), planted.end(), i) !=
                        planted.end())
                << "index " << i;
        }
    }
    EXPECT_EQ(nonzero, planted.size());
}

// -------------------------------------- scalar vs SIMD bit parity --

TEST(Compression, CodecKernelsBitIdenticalAcrossArchs)
{
    if (!simd_available())
        GTEST_SKIP() << "no SIMD variant on this host";
    ArchGuard guard;
    // Values spanning normals, half subnormals and half overflow; the
    // codec family contract (kernels.h) promises bit-identical encode
    // and decode on every variant.
    std::vector<float> x = random_delta(1003, 7, 70000.0f);
    for (size_t i = 0; i < x.size(); i += 17)
        x[i] *= 1e-6f;

    for (Compression mode : {Compression::Fp16, Compression::Int8,
                             Compression::TopK}) {
        CompressionConfig cfg = config_for(mode);
        cfg.quant_range = 100;
        cfg.topk_fraction = 0.25;
        kernels::set_kernel_arch(KernelArch::Scalar);
        EncodedDelta scalar = encode_delta(cfg, x);
        std::vector<float> scalar_out;
        ASSERT_EQ(decode_delta(scalar, &scalar_out), CodecStatus::Ok);

        kernels::set_kernel_arch(kernels::best_kernel_arch());
        EncodedDelta simd = encode_delta(cfg, x);
        std::vector<float> simd_out;
        ASSERT_EQ(decode_delta(simd, &simd_out), CodecStatus::Ok);

        EXPECT_EQ(scalar.scales, simd.scales) << compression_name(mode);
        EXPECT_EQ(scalar.payload, simd.payload) << compression_name(mode);
        ASSERT_EQ(scalar_out.size(), simd_out.size());
        for (size_t i = 0; i < scalar_out.size(); ++i) {
            ASSERT_EQ(std::memcmp(&scalar_out[i], &simd_out[i], 4), 0)
                << compression_name(mode) << " index " << i;
        }
    }
}

// ---------------------------------------------------- error feedback --

TEST(Compression, ErrorFeedbackDeliversConstantDeltaInTheLimit)
{
    // Whatever one round's quantizer drops, a later round re-sends: for
    // a constant per-round delta d the cumulative decoded mass after R
    // rounds must equal R*d minus a residual bounded by one quantization
    // step — bounded, not growing, so the average error drains to zero.
    CompressionConfig cfg = config_for(Compression::Int8);
    cfg.quant_range = 32;
    const std::vector<float> d = random_delta(64, 5, 0.01f);
    ErrorFeedback ef;
    std::vector<float> delivered(d.size(), 0.0f);
    const int rounds = 50;
    for (int r = 0; r < rounds; ++r) {
        std::vector<float> decoded;
        ef.encode(cfg, /*device=*/0, d, &decoded);
        for (size_t i = 0; i < d.size(); ++i)
            delivered[i] += decoded[i];
    }
    EXPECT_EQ(ef.tracked_devices(), 1u);
    const std::vector<float> residual = ef.residual(0);
    ASSERT_EQ(residual.size(), d.size());
    for (size_t i = 0; i < d.size(); ++i) {
        const float target = static_cast<float>(rounds) * d[i];
        // delivered + residual telescopes back to the full mass.
        EXPECT_NEAR(delivered[i] + residual[i], target,
                    std::fabs(target) * 1e-4f + 1e-6f)
            << "index " << i;
        // And the residual itself is one step, not R steps.
        EXPECT_LE(std::fabs(residual[i]), 0.02f) << "index " << i;
    }
}

TEST(Compression, ErrorFeedbackTopKEventuallyTouchesEveryIndex)
{
    // TopK keeps 25% per round, but error feedback accumulates the
    // dropped 75%: within a few rounds every coordinate of a constant
    // delta must have been delivered at least once.
    CompressionConfig cfg = config_for(Compression::TopK);
    cfg.topk_fraction = 0.25;
    // Distinct magnitudes within a 2x band: a dropped coordinate's
    // accumulated residual overtakes any freshly-reset competitor
    // within a few rounds, so delivery provably rotates.
    std::vector<float> d(40);
    for (size_t i = 0; i < d.size(); ++i)
        d[i] = 0.01f + 0.0002f * static_cast<float>(i);
    ErrorFeedback ef;
    std::vector<bool> touched(d.size(), false);
    for (int r = 0; r < 12; ++r) {
        std::vector<float> decoded;
        ef.encode(cfg, 3, d, &decoded);
        for (size_t i = 0; i < d.size(); ++i)
            if (decoded[i] != 0.0f)
                touched[i] = true;
    }
    for (size_t i = 0; i < touched.size(); ++i)
        EXPECT_TRUE(touched[i]) << "index " << i << " never delivered";
    ef.reset();
    EXPECT_EQ(ef.tracked_devices(), 0u);
}

TEST(Compression, ErrorFeedbackNoneIsAPureMove)
{
    ErrorFeedback ef;
    const std::vector<float> d = {1.0f, -2.0f, 0.5f};
    std::vector<float> decoded;
    EncodedDelta e = ef.encode(config_for(Compression::None), 0, d,
                               &decoded);
    EXPECT_EQ(e.dense, d);
    EXPECT_EQ(decoded, d);
    EXPECT_EQ(ef.tracked_devices(), 0u);  // No residual bookkeeping.
}

// --------------------------------------------------------- validation --

TEST(Compression, ValidationRejectsBadKnobs)
{
    CompressionConfig cfg = config_for(Compression::Int8);
    cfg.quant_range = 0;
    EXPECT_THROW(cfg.validate("test"), std::invalid_argument);
    cfg = config_for(Compression::TopK);
    cfg.topk_fraction = 0.0;
    EXPECT_THROW(cfg.validate("test"), std::invalid_argument);
    cfg.topk_fraction = 1.5;
    EXPECT_THROW(cfg.validate("test"), std::invalid_argument);
    cfg.topk_fraction = 1.0;
    EXPECT_NO_THROW(cfg.validate("test"));
}

// ------------------------------------------------ malformed encodings --

TEST(Compression, DecodeRejectsMalformedEncodingsWithTypedStatus)
{
    std::vector<float> out;
    CompressionConfig int8 = config_for(Compression::Int8);
    int8.quant_range = 16;
    const std::vector<float> delta = random_delta(64, 9);

    EncodedDelta truncated = encode_delta(int8, delta);
    truncated.scales.pop_back();  // Truncated scale table.
    EXPECT_EQ(decode_delta(truncated, &out), CodecStatus::BadLength);

    EncodedDelta nan_scale = encode_delta(int8, delta);
    nan_scale.scales[1] = std::nanf("");
    EXPECT_EQ(decode_delta(nan_scale, &out), CodecStatus::BadScale);

    EncodedDelta neg_scale = encode_delta(int8, delta);
    neg_scale.scales[0] = -1.0f;
    EXPECT_EQ(decode_delta(neg_scale, &out), CodecStatus::BadScale);

    CompressionConfig topk = config_for(Compression::TopK);
    topk.topk_fraction = 0.25;
    EncodedDelta overk = encode_delta(topk, delta);
    overk.k = 65;  // k > n.
    EXPECT_EQ(decode_delta(overk, &out), CodecStatus::BadK);

    EncodedDelta unsorted = encode_delta(topk, delta);
    // Swap the first two u16 local indices: no longer ascending.
    ASSERT_GE(unsorted.payload.size(), 4u + 4u);
    std::swap(unsorted.payload[4], unsorted.payload[6]);
    std::swap(unsorted.payload[5], unsorted.payload[7]);
    EXPECT_EQ(decode_delta(unsorted, &out), CodecStatus::BadIndex);

    EncodedDelta badmode = encode_delta(int8, delta);
    badmode.mode = static_cast<Compression>(77);
    EXPECT_EQ(decode_delta(badmode, &out), CodecStatus::BadMode);

    // A failed decode never touches the output.
    out = {42.0f};
    EXPECT_NE(decode_delta(truncated, &out), CodecStatus::Ok);
    EXPECT_EQ(out, std::vector<float>{42.0f});
}

// --------------------------------------------------- size accounting --

TEST(Compression, AnalyticSizesMatchRealizedEncodings)
{
    const size_t n = 10000;
    const std::vector<float> delta = random_delta(n, 31);
    for (Compression mode : {Compression::None, Compression::Fp16,
                             Compression::Int8, Compression::TopK}) {
        CompressionConfig cfg = config_for(mode);
        EncodedDelta e = encode_delta(cfg, delta);
        EXPECT_EQ(encoded_payload_bytes(e), encoded_delta_bytes(cfg, n))
            << compression_name(mode);
    }
    // And the headline ratios hold: >= 3x for Int8, >= 8x for TopK@10%.
    CompressionConfig int8 = config_for(Compression::Int8);
    CompressionConfig topk = config_for(Compression::TopK);
    const double raw = static_cast<double>(4 * n);
    EXPECT_GE(raw / encoded_delta_bytes(int8, n), 3.0);
    EXPECT_GE(raw / encoded_delta_bytes(topk, n), 8.0);
}

// -------------------------------------------- runtimes, end to end --

FlSystemConfig
compressed_system(const std::string &listen, int workers, Compression mode)
{
    FlSystemConfig cfg;
    cfg.workload = Workload::CnnMnist;
    cfg.params = {16, 1, 6};
    cfg.hyper.lr = 0.05;
    cfg.data.train_samples = 240;
    cfg.data.test_samples = 80;
    cfg.data.noise = 0.6;
    cfg.partition.num_devices = 12;
    cfg.seed = 23;
    cfg.threads = 4;
    cfg.ps.shards = 5;
    cfg.ps.mode = SyncMode::SemiAsync;
    cfg.ps.staleness_bound = 0;
    cfg.ps.compression.mode = mode;
    if (!listen.empty()) {
        cfg.ps.net.listen = listen;
        cfg.ps.net.workers = workers;
    }
    return cfg;
}

const std::vector<int> kRoundIds = {0, 3, 5, 7, 9, 11};

TEST(Compression, PsConfigAcceptsCompressedSyncRejectsPipelining)
{
    PsConfig cfg;
    cfg.compression.mode = Compression::Int8;
    cfg.mode = SyncMode::Sync;
    EXPECT_NO_THROW(cfg.validate("test"));
    cfg.mode = SyncMode::SemiAsync;
    cfg.staleness_bound = 0;
    EXPECT_NO_THROW(cfg.validate("test"));
    cfg.pipeline_depth = 2;
    EXPECT_THROW(cfg.validate("test"), std::invalid_argument);

    // Sync is SemiAsync(S=0) under compression too: the same train
    // function encodes every push against the same pulled weights.
    FlSystemConfig sync_cfg = compressed_system("", 0, Compression::Int8);
    sync_cfg.ps.mode = SyncMode::Sync;
    FlSystem sync(sync_cfg);
    FlSystem semi(compressed_system("", 0, Compression::Int8));
    for (uint64_t round = 0; round < 3; ++round) {
        sync.run_round(kRoundIds, round);
        semi.run_round(kRoundIds, round);
        const auto &a = sync.server().global_weights();
        const auto &b = semi.server().global_weights();
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(a[i], b[i]) << "round " << round << " index " << i;
    }
    EXPECT_GT(sync.ps()->push_payload_bytes(), 0u);
    EXPECT_EQ(sync.ps()->push_payload_bytes(),
              semi.ps()->push_payload_bytes());
}

TEST(Compression, ClusterInt8MatchesInProcessInt8BitForBit)
{
    // The compressed runtime's parity guarantee: the encoded-delta wire
    // path (worker-side error feedback, PushDelta frames, server-side
    // reconstruction against the round's pinned pull base) must produce
    // the very same bits as the in-process compressed runtime's
    // decode-before-commit — placement and transport cannot leak into
    // the weights, compressed or not.
    FlSystem direct(compressed_system("", 0, Compression::Int8));
    FlSystem clustered(
        compressed_system("loopback", 3, Compression::Int8));

    for (uint64_t round = 0; round < 3; ++round) {
        direct.run_round(kRoundIds, round);
        clustered.run_round(kRoundIds, round);
        const auto &a = direct.server().global_weights();
        const auto &b = clustered.server().global_weights();
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(a[i], b[i]) << "round " << round << " index " << i;
    }
    ASSERT_NE(clustered.cluster(), nullptr);
    EXPECT_EQ(clustered.cluster()->server().dead_evictions(), 0u);
}

TEST(Compression, CompressedRuntimeStillLearns)
{
    // Sanity across every mode: a few compressed rounds produce a model
    // that is a model (accuracy clears chance), and the in-process push
    // accounting reports the compressed byte cost, not the raw one.
    for (Compression mode : {Compression::Fp16, Compression::TopK}) {
        FlSystem fl(compressed_system("", 0, mode));
        for (uint64_t round = 0; round < 3; ++round)
            fl.run_round(kRoundIds, round);
        EXPECT_GT(fl.evaluate(), 0.1) << compression_name(mode);
        ASSERT_NE(fl.ps(), nullptr);
        const uint64_t dim = fl.server().global_weights().size();
        const uint64_t raw = 3 * kRoundIds.size() * 4 * dim;
        EXPECT_LE(fl.ps()->push_payload_bytes(), raw / 2)
            << compression_name(mode);
        EXPECT_GT(fl.ps()->push_payload_bytes(), 0u);
    }
}

} // namespace
} // namespace autofl
