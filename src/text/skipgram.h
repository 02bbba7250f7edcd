// Skip-gram with negative sampling (word2vec; Mikolov et al. 2013).
//
// The paper's classifiers use pretrained word2vec as their first layer. We
// cannot ship GoogleNews vectors, so this module trains SGNS embeddings on
// the (synthetic) training corpus from scratch — the real code path a
// practitioner would run. The tests verify that synonym-cluster members end
// up as mutual nearest neighbours, i.e. the property the paraphrase attacks
// rely on emerges from co-occurrence alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/nn/supervisor.h"
#include "src/tensor/tensor.h"
#include "src/text/corpus.h"

namespace advtext {

struct SkipGramConfig {
  std::size_t dim = 16;
  std::size_t window = 4;        ///< symmetric context window
  std::size_t negatives = 5;     ///< negative samples per positive pair
  std::size_t epochs = 8;
  double learning_rate = 0.05;   ///< linearly decayed to lr/20
  double subsample_threshold = 0.0;  ///< 0 disables frequent-word dropping
  std::uint64_t seed = 3;
};

/// Resilience outcome of a supervised skip-gram run (epoch = snapshot
/// unit), extended with the loop's own curve.
struct SkipGramReport : SupervisorReport {
  std::size_t epochs_run = 0;
  std::vector<double> epoch_losses;  ///< mean SGNS loss per epoch
};

/// Trains SGNS input vectors on the flattened documents of `data`, with
/// per-epoch snapshots, resume, divergence rollback and cooperative
/// shutdown per `resilience` (the default keeps everything in memory).
/// Returns a vocab_size x dim embedding matrix (rows for words never seen
/// stay at their random initialization).
Matrix train_skipgram(const Dataset& data, std::size_t vocab_size,
                      const SkipGramConfig& config = {},
                      const ResilienceConfig& resilience = {},
                      SkipGramReport* report = nullptr);

/// Top-k nearest neighbours of `word` by cosine similarity (excluding the
/// word itself and ids < first_valid_id, defaulting past <pad>/<unk>).
std::vector<std::pair<WordId, double>> nearest_neighbors(
    const Matrix& embeddings, WordId word, std::size_t k,
    WordId first_valid_id = 2);

/// Cosine similarity between two embedding rows (0 if either is zero).
double cosine_similarity(const Matrix& embeddings, WordId a, WordId b);

}  // namespace advtext
