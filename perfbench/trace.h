// Spans recorded from outside the library, around calls into its public
// interfaces. A TracingClassifier decorates the victim model; every call
// the attack pipeline makes through TextClassifier / SwapEvaluator becomes
// a leaf span. The sweep, document and attack spans are bracketed from the
// pipeline's own observable events: evaluate_attack's call, its on_commit
// hook, and the clean / flip-recheck predictions that surround each attack.
// Spans stay in memory and are written out when the run ends.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/eval/pipeline.h"
#include "src/nn/text_classifier.h"

namespace perfbench {

struct Span {
  const char* name = "";
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  std::int64_t parent = -1;  ///< index into the span list; -1 for a root
  std::int64_t id = -1;      ///< document index, or -1
  std::size_t rows = 0;      ///< rows scored / bytes written
  std::size_t steps = 0;     ///< nn.swap: sum of (n - pos), computed
};

class Tracer {
 public:
  /// `checkpoint_path`: when non-empty, checkpoint publishes are detected
  /// by watching the file between documents.
  explicit Tracer(std::string checkpoint_path = "");

  double now() const;

  void sweep_begin();
  void sweep_end();
  /// Call from AttackEvalConfig::on_commit.
  void commit(const advtext::DocRecord& record);

  /// A finished call into the model: becomes a child of the innermost open
  /// span.
  void leaf(const char* name, double start, double end, std::size_t rows,
            std::size_t steps = 0);
  /// The pipeline's clean prediction opens the document's attack span; the
  /// document's last prediction, the flip recheck, ends it (at commit).
  void predict(double start, double end);
  /// Called when an attack phase makes its evaluator. Each phase builds its
  /// candidates (text: sentence neighbour sets, word paraphrases) right
  /// before, so the gap since the attack's previous event is recorded as
  /// a text.candidates span.
  void phase_start(double now);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  void open(const char* name, double start);
  void close_top(double end);
  void poll_checkpoint(double now);

  std::chrono::steady_clock::time_point origin_;
  std::string checkpoint_path_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::size_t predicts_in_doc_ = 0;
  std::size_t last_predict_ = 0;
  bool attack_open_ = false;
  bool checkpoint_polled_ = false;
  double last_commit_ = 0.0;
  double last_event_ = 0.0;  ///< end of the latest span in the attack
  std::string checkpoint_stamp_;
};

/// Decorator over the victim model. Results are bit-identical to the
/// undecorated model: every call forwards to it unchanged.
class TracingClassifier final : public advtext::TextClassifier {
 public:
  TracingClassifier(const advtext::TextClassifier& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::size_t num_classes() const override { return inner_.num_classes(); }
  std::size_t embedding_dim() const override {
    return inner_.embedding_dim();
  }
  const advtext::Matrix& embedding_table() const override {
    return inner_.embedding_table();
  }
  advtext::Vector predict_proba(
      const advtext::TokenSeq& tokens) const override;
  advtext::Matrix predict_proba_batch(
      const std::vector<advtext::TokenSeq>& docs) const override;
  advtext::Matrix input_gradient(const advtext::TokenSeq& tokens,
                                 std::size_t target,
                                 advtext::Vector* proba) const override;
  std::unique_ptr<advtext::SwapEvaluator> make_swap_evaluator(
      const advtext::TokenSeq& base) const override;

 private:
  const advtext::TextClassifier& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
