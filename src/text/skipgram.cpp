#include "src/text/skipgram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/tensor/ops.h"
#include "src/tensor/serialize.h"
#include "src/util/rng.h"
#include "src/util/robust.h"
#include "src/util/serialize.h"

namespace advtext {

namespace {

/// The SGNS training loop as a ResumableTraining: one step() is one full
/// epoch (the natural snapshot boundary — mid-epoch state would also need
/// the stream/token cursors). The corpus statistics (streams, unigram
/// counts, negative-sampling weights) are deterministic functions of the
/// data and are re-derived on construction; only the mutable training state
/// (epoch, pair counter, RNG stream, both embedding tables) is serialized.
class SkipGramLoop final : public ResumableTraining {
 public:
  SkipGramLoop(const Dataset& data, std::size_t vocab_size,
               const SkipGramConfig& config)
      : config_(config), rng_(config.seed),
        in_vec_(vocab_size, config.dim), out_vec_(vocab_size, config.dim),
        counts_(vocab_size, 0.0), neg_weights_(vocab_size, 0.0) {
    for (const Document& doc : data.docs) {
      TokenSeq tokens = doc.flatten();
      for (WordId w : tokens) {
        if (w >= 0 && static_cast<std::size_t>(w) < vocab_size) {
          counts_[static_cast<std::size_t>(w)] += 1.0;
          ++total_tokens_;
        }
      }
      if (!tokens.empty()) streams_.push_back(std::move(tokens));
    }
    // Unigram^(3/4) negative-sampling table.
    for (std::size_t w = 2; w < vocab_size; ++w) {  // skip <pad>, <unk>
      neg_weights_[w] = std::pow(counts_[w], 0.75);
    }
    in_vec_.fill_uniform(rng_, static_cast<float>(0.5 / config.dim));
    // out vectors start at zero (word2vec convention).
    total_pairs_estimate_ =
        std::max<std::size_t>(1, total_tokens_ * config.epochs);
  }

  bool done() const override { return epoch_ >= config_.epochs; }

  double step() override {
    boundary_ = false;
    const std::size_t dim = config_.dim;
    double epoch_loss = 0.0;
    std::size_t epoch_pairs = 0;
    Vector grad_in(dim);
    for (const TokenSeq& tokens : streams_) {
      for (std::size_t center = 0; center < tokens.size(); ++center) {
        const WordId cw = tokens[center];
        if (cw < 2) continue;
        if (config_.subsample_threshold > 0.0) {
          const double freq = counts_[static_cast<std::size_t>(cw)] /
                              static_cast<double>(total_tokens_);
          const double keep =
              std::sqrt(config_.subsample_threshold / freq);
          if (keep < 1.0 && !rng_.bernoulli(keep)) continue;
        }
        const std::size_t reach = 1 + rng_.uniform_index(config_.window);
        const std::size_t lo = center >= reach ? center - reach : 0;
        const std::size_t hi =
            std::min(tokens.size() - 1, center + reach);
        for (std::size_t ctx = lo; ctx <= hi; ++ctx) {
          if (ctx == center) continue;
          const WordId ow = tokens[ctx];
          if (ow < 2) continue;
          ++seen_pairs_;
          ++epoch_pairs;
          const double progress =
              static_cast<double>(seen_pairs_) /
              static_cast<double>(total_pairs_estimate_);
          const double lr =
              std::max(config_.learning_rate * (1.0 - progress),
                       config_.learning_rate / 20.0) *
              lr_scale_;
          float* vin = in_vec_.row(static_cast<std::size_t>(cw));
          std::fill(grad_in.begin(), grad_in.end(), 0.0f);
          // One positive + `negatives` sampled negatives.
          for (std::size_t s = 0; s <= config_.negatives; ++s) {
            WordId target = ow;
            float label = 1.0f;
            if (s > 0) {
              target =
                  static_cast<WordId>(rng_.categorical(neg_weights_));
              if (target == ow) continue;
              label = 0.0f;
            }
            float* vout = out_vec_.row(static_cast<std::size_t>(target));
            const float score = dot(vin, vout, dim);
            const float p = sigmoid(score);
            // -log P(label | pair): divergence signal only; does not feed
            // back into the updates.
            epoch_loss -= std::log(std::max(
                1e-7, static_cast<double>(label > 0.5f ? p : 1.0f - p)));
            const float g = static_cast<float>(lr) * (label - p);
            for (std::size_t d = 0; d < dim; ++d) {
              grad_in[d] += g * vout[d];
              vout[d] += g * vin[d];
            }
          }
          for (std::size_t d = 0; d < dim; ++d) vin[d] += grad_in[d];
        }
      }
    }
    ++epoch_;
    boundary_ = true;
    double mean_loss =
        epoch_pairs == 0
            ? 0.0
            : epoch_loss / static_cast<double>(epoch_pairs);
    mean_loss = FaultInjector::instance().poison("train.loss", mean_loss);
    epoch_losses_.push_back(mean_loss);
    return mean_loss;
  }

  bool at_boundary() const override { return boundary_; }

  void save_state(std::ostream& out) const override {
    io::write_magic(out);
    io::write_u64(out, epoch_);
    io::write_u64(out, seen_pairs_);
    io::write_double(out, lr_scale_);
    io::write_doubles(out, epoch_losses_);
    const RngState rng_state = rng_.state();
    for (const std::uint64_t word : rng_state) io::write_u64(out, word);
    io::write_matrix(out, in_vec_);
    io::write_matrix(out, out_vec_);
  }

  void load_state(std::istream& in) override {
    io::read_magic(in);
    epoch_ = io::read_u64(in);
    seen_pairs_ = io::read_u64(in);
    lr_scale_ = io::read_double(in);
    epoch_losses_ = io::read_doubles(in);
    RngState rng_state{};
    for (std::uint64_t& word : rng_state) word = io::read_u64(in);
    rng_.set_state(rng_state);
    Matrix in_vec = io::read_matrix(in);
    Matrix out_vec = io::read_matrix(in);
    if (in_vec.rows() != in_vec_.rows() || in_vec.cols() != in_vec_.cols()) {
      throw std::runtime_error(
          "skip-gram snapshot shape mismatch (vocab or dim changed between "
          "save and resume?)");
    }
    in_vec_ = std::move(in_vec);
    out_vec_ = std::move(out_vec);
    boundary_ = false;
  }

  void on_rollback(double lr_scale) override { lr_scale_ = lr_scale; }

  void on_recover() override { lr_scale_ = 1.0; }

  Matrix take_embeddings() { return std::move(in_vec_); }
  const std::vector<double>& epoch_losses() const { return epoch_losses_; }
  std::size_t epochs_run() const { return epoch_; }

 private:
  SkipGramConfig config_;
  Rng rng_;
  Matrix in_vec_;
  Matrix out_vec_;
  std::vector<double> counts_;
  std::vector<double> neg_weights_;
  std::vector<TokenSeq> streams_;
  std::size_t total_tokens_ = 0;
  std::size_t total_pairs_estimate_ = 1;

  // Replayable training state (serialized).
  std::size_t epoch_ = 0;
  std::size_t seen_pairs_ = 0;
  double lr_scale_ = 1.0;
  std::vector<double> epoch_losses_;
  bool boundary_ = false;
};

}  // namespace

Matrix train_skipgram(const Dataset& data, std::size_t vocab_size,
                      const SkipGramConfig& config,
                      const ResilienceConfig& resilience,
                      SkipGramReport* report) {
  SkipGramLoop loop(data, vocab_size, config);
  ShardSpec spec;
  spec.loop = &loop;
  spec.resilience = resilience;
  SupervisorReport outcome = supervise({std::move(spec)});
  if (report != nullptr) {
    static_cast<SupervisorReport&>(*report) = std::move(outcome);
    report->epochs_run = loop.epochs_run();
    report->epoch_losses = loop.epoch_losses();
  }
  return loop.take_embeddings();
}

double cosine_similarity(const Matrix& embeddings, WordId a, WordId b) {
  const float* va = embeddings.row(static_cast<std::size_t>(a));
  const float* vb = embeddings.row(static_cast<std::size_t>(b));
  const std::size_t dim = embeddings.cols();
  const float na = norm2(va, dim);
  const float nb = norm2(vb, dim);
  if (na == 0.0f || nb == 0.0f) return 0.0;
  return static_cast<double>(dot(va, vb, dim)) / (na * nb);
}

std::vector<std::pair<WordId, double>> nearest_neighbors(
    const Matrix& embeddings, WordId word, std::size_t k,
    WordId first_valid_id) {
  std::vector<std::pair<WordId, double>> scored;
  const WordId vocab = static_cast<WordId>(embeddings.rows());
  for (WordId other = first_valid_id; other < vocab; ++other) {
    if (other == word) continue;
    scored.emplace_back(other, cosine_similarity(embeddings, word, other));
  }
  const std::size_t keep = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                    [](const auto& x, const auto& y) {
                      if (x.second != y.second) return x.second > y.second;
                      return x.first < y.first;
                    });
  scored.resize(keep);
  return scored;
}

}  // namespace advtext
