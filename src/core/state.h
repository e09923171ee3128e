/**
 * @file
 * AutoFL state encoding (Table 1).
 *
 * The global state captures the NN's layer mix and the FL global
 * parameters; the local (per-device) state captures runtime variance
 * (co-running CPU/memory load, network bandwidth) and data heterogeneity
 * (data classes held this round). Continuous features are discretized
 * into the buckets printed in Table 1.
 */
#ifndef AUTOFL_CORE_STATE_H
#define AUTOFL_CORE_STATE_H

#include "fl/fl_types.h"
#include "nn/sequential.h"
#include "sim/variance.h"

namespace autofl {

/** Discretized global state (NN features + global parameters). */
struct GlobalState
{
    int s_conv = 0;  ///< CONV-layer-count bucket (4 levels).
    int s_fc = 0;    ///< FC-layer-count bucket (2 levels).
    int s_rc = 0;    ///< RC-layer-count bucket (3 levels).
    int s_b = 0;     ///< Batch-size bucket (3 levels).
    int s_e = 0;     ///< Local-epochs bucket (3 levels).
    int s_k = 0;     ///< Participant-count bucket (3 levels).
    int s_stale = 0; ///< Observed-staleness bucket (3 levels); 0 = sync.

    bool operator==(const GlobalState &) const = default;
};

/** Discretized local state (runtime variance + data classes). */
struct LocalState
{
    int s_co_cpu = 0;   ///< Co-running CPU-utilization bucket (4 levels).
    int s_co_mem = 0;   ///< Co-running memory-usage bucket (4 levels).
    int s_network = 0;  ///< Network bucket: 0 regular, 1 bad.
    int s_data = 0;     ///< Data-classes bucket (3 levels).

    bool operator==(const LocalState &) const = default;
};

/**
 * Bucket counts (Table 1's "Discrete Values" column). One deviation from
 * the printed table: each layer-type feature gains an explicit "none (0)"
 * bucket below "small", since the printed thresholds would otherwise fold
 * a CONV-only model and an RC-only model into one state (both "small").
 */
constexpr int kConvBuckets = 5;
constexpr int kFcBuckets = 3;
constexpr int kRcBuckets = 4;
constexpr int kBatchBuckets = 3;
constexpr int kEpochBuckets = 3;
constexpr int kKBuckets = 3;
constexpr int kStaleBuckets = 3;
constexpr int kCoCpuBuckets = 4;
constexpr int kCoMemBuckets = 4;
constexpr int kNetworkBuckets = 2;
constexpr int kDataBuckets = 3;

/** Number of distinct global state encodings. */
constexpr int kGlobalStates = kConvBuckets * kFcBuckets * kRcBuckets *
    kBatchBuckets * kEpochBuckets * kKBuckets * kStaleBuckets;

/** Number of distinct local state encodings. */
constexpr int kLocalStates = kCoCpuBuckets * kCoMemBuckets *
    kNetworkBuckets * kDataBuckets;

/** Encode the global state to a dense index in [0, kGlobalStates). */
int encode_global(const GlobalState &s);

/** Encode the local state to a dense index in [0, kLocalStates). */
int encode_local(const LocalState &s);

/**
 * Discretize the NN profile + global parameters per Table 1, plus the
 * ps-runtime extension: the job's observed mean update staleness
 * (0 under the synchronous runtime), so the scheduler can condition on
 * how asynchronously the server is consuming updates.
 */
GlobalState make_global_state(const NnProfile &profile,
                              const FlGlobalParams &params,
                              double observed_staleness = 0.0);

/**
 * Discretize one device's observable round state per Table 1.
 * @param data_classes Distinct label classes on the device this round.
 * @param total_classes Classes in the whole task (for the % thresholds).
 */
LocalState make_local_state(const DeviceRoundState &state, int data_classes,
                            int total_classes);

} // namespace autofl

#endif // AUTOFL_CORE_STATE_H
