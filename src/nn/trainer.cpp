#include "src/nn/trainer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/nn/checkpoint.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/robust.h"
#include "src/util/serialize.h"
#include "src/util/sync.h"

namespace advtext {

namespace {

// Adam's moment decays and denominator floor, and the L2 weight-decay
// coefficient added to every gradient.
constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEpsilon = 1e-8;
constexpr double kWeightDecay = 1e-3;

}  // namespace

void Adam::step(const std::vector<ParamRef>& params, double batch_scale) {
  // A single NaN gradient silently poisons every later step through the
  // Adam moments; reject it *before* the update while the moments and
  // parameters are still clean (a supervisor rollback can then recover by
  // restoring the loop state alone).
  for (std::size_t p = 0; p < params.size(); ++p) {
    ADVTEXT_DCHECK(all_finite(params[p].grad, params[p].size))
        << "Adam::step: gradient tensor " << p << " non-finite before update";
  }
  // Global-norm gradient clipping (on the batch-averaged gradients).
  if (config_.clip_norm > 0.0) {
    double norm_sq = 0.0;
    for (const ParamRef& ref : params) {
      for (std::size_t i = 0; i < ref.size; ++i) {
        const double g = ref.grad[i] * batch_scale;
        // ADVTEXT_ALLOW(float-accum): one running norm across all tensors in params() order; splitting would change the bits
        norm_sq += g * g;
      }
    }
    const double norm = std::sqrt(norm_sq);
    if (norm > config_.clip_norm) {
      batch_scale *= config_.clip_norm / norm;
      ++clipped_steps_;
    }
  }
  if (m_.empty()) {
    m_.resize(params.size());
    v_.resize(params.size());
    for (std::size_t p = 0; p < params.size(); ++p) {
      m_[p].assign(params[p].size, 0.0f);
      v_[p].assign(params[p].size, 0.0f);
    }
  }
  ++t_;
  const double b1 = kBeta1;
  const double b2 = kBeta2;
  const double correction1 = 1.0 - std::pow(b1, static_cast<double>(t_));
  const double correction2 = 1.0 - std::pow(b2, static_cast<double>(t_));
  const double lr = lr_;
  for (std::size_t p = 0; p < params.size(); ++p) {
    const ParamRef& ref = params[p];
    for (std::size_t i = 0; i < ref.size; ++i) {
      const double g = static_cast<double>(ref.grad[i]) * batch_scale +
                       kWeightDecay * ref.value[i];
      m_[p][i] = static_cast<float>(b1 * m_[p][i] + (1.0 - b1) * g);
      v_[p][i] = static_cast<float>(b2 * v_[p][i] + (1.0 - b2) * g * g);
      const double mhat = m_[p][i] / correction1;
      const double vhat = v_[p][i] / correction2;
      ref.value[i] -=
          static_cast<float>(lr * mhat / (std::sqrt(vhat) + kEpsilon));
    }
  }
  for (std::size_t p = 0; p < params.size(); ++p) {
    ADVTEXT_DCHECK(all_finite(params[p].value, params[p].size))
        << "Adam::step: parameter tensor " << p << " non-finite after update";
  }
}

void Adam::save_state(std::ostream& out) const {
  io::write_u64(out, t_);
  io::write_double(out, lr_);
  io::write_u64(out, clipped_steps_);
  io::write_u64(out, m_.size());
  for (std::size_t p = 0; p < m_.size(); ++p) {
    io::write_u64(out, m_[p].size());
    io::write_floats(out, m_[p].data(), m_[p].size());
    io::write_floats(out, v_[p].data(), v_[p].size());
  }
}

void Adam::load_state(std::istream& in) {
  t_ = io::read_u64(in);
  lr_ = io::read_double(in);
  clipped_steps_ = io::read_u64(in);
  const std::size_t tensors = io::read_u64(in);
  m_.assign(tensors, {});
  v_.assign(tensors, {});
  for (std::size_t p = 0; p < tensors; ++p) {
    const std::size_t size = io::read_u64(in);
    m_[p].resize(size);
    v_[p].resize(size);
    io::read_floats(in, m_[p].data(), size);
    io::read_floats(in, v_[p].data(), size);
  }
}

namespace {

double dataset_accuracy(const TextClassifier& model,
                        const std::vector<const Document*>& docs) {
  if (docs.empty()) return 0.0;
  std::size_t correct = 0;
  for (const Document* doc : docs) {
    // Epoch-boundary accuracy runs on a watchdog-monitored worker; beat
    // per document so a large validation set is not reported as a stall.
    if (Heartbeat* heart = ThreadPool::current()) heart->beat();
    const TokenSeq tokens = doc->flatten();
    if (tokens.empty()) continue;
    // ADVTEXT_ALLOW(uncharged-forward): epoch-boundary accuracy probe on the daemon's own model during training — a training metric, not an adversarial query, so no QueryBudget exists here
    if (model.predict(tokens) == static_cast<std::size_t>(doc->label)) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(docs.size());
}

/// The classifier training loop as a ResumableTraining: one step() is one
/// mini-batch. Constructed fresh it replays the exact pre-supervisor
/// trainer: Rng(seed) -> validation split -> per-epoch shuffles -> batched
/// forward/backward -> Adam. load_state() overwrites the replayable state
/// (cursor, permutation, RNG streams, model params, Adam moments) so the
/// remaining steps are bitwise identical to an uninterrupted run.
class ClassifierTrainLoop final : public ResumableTraining {
 public:
  /// `docs` is the loop's shard of the dataset, in dataset order.
  /// `loss_site` is the fault-injection point armed around the batch loss.
  ClassifierTrainLoop(TrainableClassifier& model,
                      const std::vector<const Document*>& docs,
                      const TrainConfig& config, std::string loss_site)
      : model_(model), config_(config), loss_site_(std::move(loss_site)),
        rng_(config.seed), optimizer_(config) {
    // Validation split (deterministic tail slice of a fixed permutation).
    // Document pointers cannot be serialized, so resume re-derives the
    // split from the seed and then restores the RNG stream from the
    // snapshot — identical result, by construction.
    const auto order = rng_.permutation(docs.size());
    const std::size_t num_val = static_cast<std::size_t>(
        config.validation_fraction * static_cast<double>(docs.size()));
    for (std::size_t i = 0; i < order.size(); ++i) {
      const Document* doc = docs[order[i]];
      if (doc->num_words() == 0) continue;
      if (i < num_val) {
        val_docs_.push_back(doc);
      } else {
        train_docs_.push_back(doc);
      }
    }
  }

  bool done() const override {
    return finished_ || epoch_ >= config_.epochs;
  }

  double step() override {
    if (!perm_drawn_) {
      perm_ = rng_.permutation(train_docs_.size());
      cursor_ = 0;
      epoch_loss_ = 0.0;
      processed_ = 0;
      perm_drawn_ = true;
    }
    boundary_ = false;
    const std::size_t end =
        std::min(cursor_ + kTrainBatchSize, perm_.size());
    model_.zero_grad();
    double batch_loss = 0.0;
    for (std::size_t i = cursor_; i < end; ++i) {
      const Document* doc = train_docs_[perm_[i]];
      // ADVTEXT_ALLOW(float-accum): terms are side-effecting forward_backward calls in (seeded) permutation order
      batch_loss += model_.forward_backward(
          doc->flatten(), static_cast<std::size_t>(doc->label));
    }
    const std::size_t batch = std::max<std::size_t>(1, end - cursor_);
    batch_loss =
        FaultInjector::instance().poison(loss_site_.c_str(), batch_loss);
    if (!std::isfinite(batch_loss)) {
      // Divergence: report it *without* stepping the optimizer, so the
      // Adam moments and parameters stay clean for the rollback.
      return batch_loss;
    }
    if (end > cursor_) {
      optimizer_.step(model_.params(),
                      1.0 / static_cast<double>(end - cursor_));
    }
    epoch_loss_ += batch_loss;
    processed_ += end - cursor_;
    cursor_ = end;
    if (cursor_ >= perm_.size()) finish_epoch();
    return batch_loss / static_cast<double>(batch);
  }

  bool at_boundary() const override { return boundary_; }

  void save_state(std::ostream& out) const override {
    io::write_magic(out);
    io::write_u64(out, epoch_);
    io::write_u64(out, cursor_);
    io::write_u64(out, processed_);
    io::write_u64(out, perm_drawn_ ? 1 : 0);
    io::write_u64(out, finished_ ? 1 : 0);
    io::write_double(out, epoch_loss_);
    io::write_double(out, best_val_);
    io::write_doubles(out, epoch_losses_);
    io::write_u64(out, perm_.size());
    for (const std::size_t index : perm_) io::write_u64(out, index);
    const RngState rng_state = rng_.state();
    for (const std::uint64_t word : rng_state) io::write_u64(out, word);
    const std::vector<std::uint64_t> stochastic = model_.stochastic_state();
    io::write_u64(out, stochastic.size());
    for (const std::uint64_t word : stochastic) io::write_u64(out, word);
    const std::vector<ParamRef> params = model_.params();
    io::write_u64(out, params.size());
    for (const ParamRef& ref : params) {
      io::write_u64(out, ref.size);
      io::write_floats(out, ref.value, ref.size);
    }
    optimizer_.save_state(out);
  }

  void load_state(std::istream& in) override {
    io::read_magic(in);
    epoch_ = io::read_u64(in);
    cursor_ = io::read_u64(in);
    processed_ = io::read_u64(in);
    perm_drawn_ = io::read_u64(in) != 0;
    finished_ = io::read_u64(in) != 0;
    epoch_loss_ = io::read_double(in);
    best_val_ = io::read_double(in);
    epoch_losses_ = io::read_doubles(in);
    perm_.resize(io::read_u64(in));
    for (std::size_t& index : perm_) index = io::read_u64(in);
    RngState rng_state{};
    for (std::uint64_t& word : rng_state) word = io::read_u64(in);
    rng_.set_state(rng_state);
    std::vector<std::uint64_t> stochastic(io::read_u64(in));
    for (std::uint64_t& word : stochastic) word = io::read_u64(in);
    model_.set_stochastic_state(stochastic);
    const std::vector<ParamRef> params = model_.params();
    const std::size_t tensors = io::read_u64(in);
    if (tensors != params.size()) {
      throw std::runtime_error(
          "training snapshot parameter count mismatch: snapshot has " +
          std::to_string(tensors) + ", model has " +
          std::to_string(params.size()));
    }
    for (const ParamRef& ref : params) {
      const std::size_t size = io::read_u64(in);
      if (size != ref.size) {
        throw std::runtime_error(
            "training snapshot tensor size mismatch (architecture changed "
            "between save and resume?)");
      }
      io::read_floats(in, ref.value, ref.size);
    }
    optimizer_.load_state(in);
    boundary_ = false;
  }

  void on_rollback(double lr_scale) override {
    optimizer_.set_learning_rate(config_.learning_rate * lr_scale);
  }

  void on_recover() override {
    // The backed-off retry made it through: restore the configured rate so
    // a transient fault does not depress learning for the rest of the run.
    optimizer_.set_learning_rate(config_.learning_rate);
  }

  /// The supervisor's report extended with what the loop itself tracked.
  TrainReport report(SupervisorReport outcome) const {
    TrainReport report;
    static_cast<SupervisorReport&>(report) = std::move(outcome);
    report.epochs_run = epoch_losses_.size();
    report.epoch_losses = epoch_losses_;
    report.final_train_loss =
        epoch_losses_.empty() ? 0.0 : epoch_losses_.back();
    report.best_validation_accuracy = best_val_;
    report.clipped_steps = optimizer_.clipped_steps();
    return report;
  }

 private:
  void finish_epoch() {
    epoch_loss_ /=
        static_cast<double>(std::max<std::size_t>(1, processed_));
    epoch_losses_.push_back(epoch_loss_);
    if (!val_docs_.empty()) {
      const double val_acc = dataset_accuracy(model_, val_docs_);
      best_val_ = std::max(best_val_, val_acc);
      // Early stop once validation is saturated and loss is small.
      if (val_acc >= 0.999 && epoch_loss_ < 0.05) finished_ = true;
    }
    ++epoch_;
    perm_drawn_ = false;
    boundary_ = true;
  }

  TrainableClassifier& model_;
  TrainConfig config_;
  std::string loss_site_;
  Rng rng_;
  Adam optimizer_;
  std::vector<const Document*> train_docs_;
  std::vector<const Document*> val_docs_;

  // Replayable cursor state (serialized).
  std::size_t epoch_ = 0;
  std::size_t cursor_ = 0;
  std::size_t processed_ = 0;
  bool perm_drawn_ = false;
  bool finished_ = false;
  bool boundary_ = false;
  double epoch_loss_ = 0.0;
  double best_val_ = 0.0;
  std::vector<double> epoch_losses_;
  std::vector<std::size_t> perm_;
};

}  // namespace

TrainReport train_classifier(TrainableClassifier& model, const Dataset& data,
                             const TrainConfig& config,
                             const ResilienceConfig& resilience,
                             const ShardConfig& shards) {
  const std::size_t count = std::max<std::size_t>(1, shards.shards);
  ADVTEXT_CHECK(count == 1 || shards.make_replica != nullptr)
      << "train_classifier: shards > 1 needs a replica factory";

  // Deal documents round-robin so every shard sees the same label mix; one
  // shard keeps the whole dataset in order.
  std::vector<std::vector<const Document*>> shard_docs(count);
  for (std::size_t i = 0; i < data.docs.size(); ++i) {
    shard_docs[i % count].push_back(&data.docs[i]);
  }

  // Shard 0 trains the primary model in place; the others train replicas
  // whose parameters start as a bitwise copy of the primary's.
  std::vector<std::unique_ptr<TrainableClassifier>> replicas;
  std::vector<TrainableClassifier*> shard_models(count, &model);
  for (std::size_t k = 1; k < count; ++k) {
    replicas.push_back(shards.make_replica());
    ADVTEXT_CHECK(replicas.back() != nullptr)
        << "replica factory returned null";
    copy_model_params(model, *replicas.back());
    shard_models[k] = replicas.back().get();
  }

  std::vector<std::unique_ptr<ClassifierTrainLoop>> loops;
  std::vector<ShardSpec> specs;
  loops.reserve(count);
  specs.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::string suffix = count == 1 ? "" : "@shard" + std::to_string(k);
    TrainConfig shard_train = config;
    shard_train.seed = config.seed + static_cast<std::uint64_t>(k);
    loops.push_back(std::make_unique<ClassifierTrainLoop>(
        *shard_models[k], shard_docs[k], shard_train, "train.loss" + suffix));
    ShardSpec spec;
    spec.loop = loops.back().get();
    spec.params = shard_models[k]->params();
    spec.resilience = resilience;
    if (count > 1 && !resilience.snapshot_path.empty()) {
      spec.resilience.snapshot_path += ".shard" + std::to_string(k);
    }
    specs.push_back(std::move(spec));
  }

  SupervisorReport outcome = supervise(std::move(specs));
  const std::size_t result = outcome.result_shard;
  // The result shard's parameters become the primary model's (a bitwise
  // copy; after a clean run every survivor already holds the averaged
  // values, so this only matters under degradation or stop).
  if (result != 0) copy_model_params(*shard_models[result], model);
  return loops[result]->report(std::move(outcome));
}

}  // namespace advtext
