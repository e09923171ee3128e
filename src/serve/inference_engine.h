/**
 * @file
 * InferenceEngine: batched forward passes over snapshot weights.
 *
 * The engine owns a fixed pool of worker slots, each holding a scratch
 * model tagged with the identity (epoch + buffer) of the weights it
 * last loaded, so repeated queries against one snapshot skip the flat
 * weight reload entirely — the serving hot path is claim slot, batch,
 * infer. Models run through Sequential::infer(), the inference-only
 * pass that folds cfg.batch_size samples into each layer call (one
 * GEMM where the per-sample path ran batch GEMV-shaped calls) and
 * retains no backward state.
 *
 * Claim rules: every engine call holds a slot for one infer() at a
 * time — forward() for its batch, classify() and evaluate() per
 * cfg.batch_size chunk. Claims come in two classes. Serving
 * (Claim::Serve: forward(), classify(), a default Lease) is
 * foreground; evaluate()'s per-batch claims (Claim::Eval) are
 * background. A freed slot goes to a waiting foreground claim before a
 * waiting background one, so a request waits behind at most one eval
 * batch, not a whole test set. Liveness: once background claims have
 * been passed over cfg.starvation_limit times in a row, the next free
 * slot goes to one of them, so a saturated service cannot starve eval.
 *
 * Determinism contract: evaluate() partitions the dataset into
 * fixed-size batches in index order and reduces per-batch results in
 * batch order, so accuracy and loss are identical for ANY fan-out.
 * Batched and per-sample logits are bit-identical per arch variant
 * (scalar exactly; SIMD variants agree within 1e-4 relative across
 * batch shapes — the GEMM variant tolerance).
 */
#ifndef AUTOFL_SERVE_INFERENCE_ENGINE_H
#define AUTOFL_SERVE_INFERENCE_ENGINE_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "nn/models.h"
#include "ps/sharded_store.h"
#include "serve/serve_config.h"

namespace autofl {

/**
 * Refcounted, epoch-tagged view of one immutable model version.
 * Copying shares the underlying storage; reads through a valid handle
 * are lock-free and remain safe after training has moved on — the
 * refcount keeps the storage alive.
 *
 * The handle is a *view* (owner + pointer + length), so the storage
 * behind it can be a store-published weight vector or an mmap'd
 * snapshot artifact (store::MappedSnapshot) — the engine's slot
 * caching keys on owner identity either way and never cares which.
 */
class SnapshotHandle
{
  public:
    /** Invalid handle (no snapshot). */
    SnapshotHandle() = default;

    /** Wrap a published store snapshot. */
    explicit SnapshotHandle(StoreSnapshot snap)
        : epoch_(snap.epoch), owner_(snap.weights),
          data_(snap.weights ? snap.weights->data() : nullptr),
          size_(snap.weights ? snap.weights->size() : 0)
    {
    }

    /**
     * View @p size floats at @p data, kept alive by @p owner — the
     * artifact-backed source (data points into the mapped file).
     */
    SnapshotHandle(uint64_t epoch, std::shared_ptr<const void> owner,
                   const float *data, size_t size)
        : epoch_(epoch), owner_(std::move(owner)), data_(data), size_(size)
    {
    }

    /** Whether the handle references a snapshot. */
    bool valid() const { return data_ != nullptr; }

    /** Commit epoch (model version) of the snapshot. */
    uint64_t epoch() const { return epoch_; }

    /** The immutable flat weights. Handle must be valid. */
    std::span<const float>
    weights() const
    {
        return {data_, size_};
    }

    /**
     * Shared ownership of the backing storage (lifetime extension).
     * Also the snapshot's *identity*: two handles view the same model
     * version iff their owners are the same object.
     */
    const std::shared_ptr<const void> &
    owner() const
    {
        return owner_;
    }

  private:
    uint64_t epoch_ = 0;
    std::shared_ptr<const void> owner_;
    const float *data_ = nullptr;
    size_t size_ = 0;
};

/** Result of one batched dataset scoring pass. */
struct EvalStats
{
    int samples = 0;         ///< Rows scored.
    int correct = 0;         ///< Argmax-correct rows.
    double accuracy = 0.0;   ///< correct / samples (0 on empty input).
    double mean_loss = 0.0;  ///< Sample-weighted mean cross-entropy.
    uint64_t epoch = 0;      ///< Snapshot epoch that was scored.
};

/** Batched inference over snapshot weights on pooled worker slots. */
class InferenceEngine
{
  public:
    /**
     * @param workload Model architecture to instantiate per slot.
     * @param cfg Batch size and slot-pool size (pre-validated).
     */
    InferenceEngine(Workload workload, const ServeConfig &cfg);

    InferenceEngine(const InferenceEngine &) = delete;
    InferenceEngine &operator=(const InferenceEngine &) = delete;

    /** Scheduling class of a slot claim (see the file comment). */
    enum class Claim : uint8_t {
        Serve,  ///< Foreground: serving forward passes.
        Eval,   ///< Background: one evaluate() batch; yields to Serve.
    };

    /**
     * Score @p test with the snapshot's weights. Thread-safe: the
     * @p fan_out threads (0 = cfg.workers, clamped to the batch count)
     * each take every fan_out-th batch and claim a slot per batch as
     * Claim::Eval, yielding to serving between batches. The result is
     * deterministic for any fan-out and any interleaving.
     */
    EvalStats evaluate(const SnapshotHandle &snap, const Dataset &test,
                      int fan_out = 0);

    /**
     * Predicted classes for @p indices of @p data, computed in
     * cfg.batch_size chunks, each on its own foreground claim.
     * Thread-safe.
     */
    std::vector<int> classify(const SnapshotHandle &snap,
                              const Dataset &data,
                              const std::vector<int> &indices);

    /**
     * Raw logits for one model-ready input batch (layout per
     * Dataset::batch_x). Thread-safe; one foreground claim. Throws
     * std::invalid_argument on an invalid handle — a slot must never
     * serve without loaded weights.
     */
    Tensor forward(const SnapshotHandle &snap, Tensor batch);

    int batch_size() const { return cfg_.batch_size; }
    int workers() const { return cfg_.workers; }

    /**
     * Flat parameter count of the served architecture — what any
     * snapshot source must supply (ModelService validates artifact
     * dimensions against this before attaching them).
     */
    size_t model_params() const { return slots_.front()->model.num_params(); }

    /**
     * Claims of class @p c currently waiting for a slot. Read-only
     * observability (tests use it to order waiters without sleeps).
     */
    int waiting(Claim c) const;

  private:
    /**
     * One pooled scratch model with weight-identity caching. The slot
     * shares ownership of the weights it last loaded: identity is
     * plain pointer equality, and the held reference makes address
     * reuse (a freed buffer reallocated at the same address) — the
     * classic caching-aliasing bug — structurally impossible.
     * Exclusive access is the busy flag, guarded by pool_mu_; the model
     * itself is touched only between claim() and release().
     */
    struct Slot
    {
        Sequential model;
        std::shared_ptr<const void> loaded;
        bool busy = false;
    };

  public:
    /**
     * RAII slot claim of class @p c that also ensures the snapshot's
     * weights are loaded. Claiming prefers a free slot that already
     * holds this snapshot (serving affinity: no reload), then any free
     * slot. When none is free to this class — every slot busy, or the
     * free ones owed to the other class's waiters — the claim waits on
     * the pool's condition variable and takes *whichever* slot frees
     * first; waiters never park on one predetermined slot. A freed slot
     * goes to a waiting Serve claim before a waiting Eval claim, unless
     * Eval claims have been passed over cfg.starvation_limit times in a
     * row. Public so tests (and callers that must pin a slot) can hold
     * a claim; holding one across many infer() calls blocks serving.
     */
    class Lease
    {
      public:
        Lease(InferenceEngine &eng, const SnapshotHandle &snap,
              Claim c = Claim::Serve);
        ~Lease() { eng_->release(*slot_); }
        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;
        Sequential &model() { return slot_->model; }

      private:
        InferenceEngine *eng_;
        Slot *slot_;
    };

  private:
    Workload workload_;
    ServeConfig cfg_;
    std::vector<std::unique_ptr<Slot>> slots_;
    mutable std::mutex pool_mu_;  ///< Guards busy flags and counters below.
    std::condition_variable free_cv_;  ///< Broadcast when a waiter may proceed.
    int serve_waiting_ = 0;    ///< Claim::Serve callers blocked in claim().
    int eval_waiting_ = 0;     ///< Claim::Eval callers blocked in claim().
    int eval_passed_over_ = 0; ///< Serve wins in a row while Eval waited.

    Slot &claim(const SnapshotHandle &snap, Claim c);
    void release(Slot &s);
};

} // namespace autofl

#endif // AUTOFL_SERVE_INFERENCE_ENGINE_H
