// The victim models advtext_cli and advtextd build by name (--model
// wcnn|lstm|gru|bow), with their --filters / --hidden defaults. Header-only:
// the benchmark's build compiles advtextd.cpp on its own.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/data/synthetic.h"
#include "src/nn/bow_classifier.h"
#include "src/nn/gru.h"
#include "src/nn/lstm.h"
#include "src/nn/wcnn.h"
#include "src/util/args.h"

namespace advtext {

/// An untrained model of `kind` over the task's vocabulary and embeddings.
/// Throws std::invalid_argument for an unknown kind.
inline std::unique_ptr<TrainableClassifier> build_model(
    const std::string& kind, const SynthTask& task, const ArgParser& args) {
  if (kind == "wcnn") {
    WCnnConfig config;
    config.embed_dim = task.config.embedding_dim;
    config.num_filters =
        static_cast<std::size_t>(args.get_int("filters", 96));
    return std::make_unique<WCnn>(config, Matrix(task.paragram));
  }
  if (kind == "lstm" || kind == "gru") {
    RecurrentConfig config;
    config.embed_dim = task.config.embedding_dim;
    config.hidden = static_cast<std::size_t>(args.get_int("hidden", 24));
    if (kind == "lstm") {
      return std::make_unique<LstmClassifier>(config, Matrix(task.paragram));
    }
    return std::make_unique<GruClassifier>(config, Matrix(task.paragram));
  }
  if (kind == "bow") {
    BowClassifierConfig config;
    config.vocab_size = static_cast<std::size_t>(task.vocab.size());
    return std::make_unique<BowClassifier>(config);
  }
  throw std::invalid_argument("unknown --model kind: " + kind);
}

}  // namespace advtext
