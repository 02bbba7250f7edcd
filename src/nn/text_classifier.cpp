#include "src/nn/text_classifier.h"

#include <algorithm>

namespace advtext {

namespace {

/// Fallback evaluator: one full forward pass per candidate.
class FullForwardEvaluator : public SwapEvaluator {
 public:
  FullForwardEvaluator(const TextClassifier& model, const TokenSeq& base)
      : model_(model) {
    rebase(base);
  }

 protected:
  std::size_t do_num_classes() const override { return model_.num_classes(); }

  void do_rebase(const TokenSeq& /*tokens*/) override {}

  Vector do_eval_swap(std::size_t pos, WordId candidate) override {
    TokenSeq tokens = base_tokens_;
    tokens.at(pos) = candidate;
    return model_.predict_proba(tokens);
  }

  Vector do_eval_tokens(const TokenSeq& tokens) override {
    return model_.predict_proba(tokens);
  }

 private:
  const TextClassifier& model_;
};

}  // namespace

// ---- SwapEvaluator shell ---------------------------------------------------

void SwapEvaluator::rebase(const TokenSeq& tokens) {
  base_tokens_ = tokens;
  do_rebase(base_tokens_);
}

void SwapEvaluator::bind_control(const AttackControl* control) {
  control_ = control;
}

bool SwapEvaluator::admit_row() {
  if (control_ != nullptr && !control_->try_charge()) return false;
  ++queries_;
  return true;
}

Vector SwapEvaluator::eval_swap(std::size_t pos, WordId candidate) {
  ADVTEXT_CHECK_SHAPE(pos < base_tokens_.size())
      << "eval_swap: position " << pos << " out of range for base of "
      << base_tokens_.size() << " tokens";
  const bool admitted = admit_row();
  ADVTEXT_CHECK(admitted) << "eval_swap: the bound query budget is spent";
  return do_eval_swap(pos, candidate);
}

Vector SwapEvaluator::eval_tokens(const TokenSeq& tokens) {
  Vector out;
  const bool admitted = try_eval_tokens(tokens, out);
  ADVTEXT_CHECK(admitted) << "eval_tokens: the bound query budget is spent";
  return out;
}

bool SwapEvaluator::try_eval_tokens(const TokenSeq& tokens, Vector& out) {
  if (!admit_row()) return false;
  out = do_eval_tokens(tokens);
  return true;
}

BatchStatus SwapEvaluator::admit(std::size_t count, Matrix& out) {
  const std::size_t classes = do_num_classes();
  if (out.rows() != count || out.cols() != classes) {
    out = Matrix(count, classes);
  }
  // Deadline first, then the budget, so a limit is classified the same
  // way at any batch width.
  BatchStatus status;
  for (; status.evaluated < count; ++status.evaluated) {
    if (control_ != nullptr && control_->deadline.expired()) {
      status.out_of_time = true;
      break;
    }
    if (!admit_row()) {
      status.out_of_budget = true;
      break;
    }
  }
  while (rows_.size() < status.evaluated) rows_.push_back(rows_.size());
  return status;
}

BatchStatus SwapEvaluator::eval_swap_batch(const SwapCandidate* candidates,
                                           std::size_t count, Matrix& out) {
  for (std::size_t i = 0; i < count; ++i) {
    ADVTEXT_CHECK_SHAPE(candidates[i].pos < base_tokens_.size())
        << "eval_swap_batch: position " << candidates[i].pos
        << " out of range for base of " << base_tokens_.size() << " tokens";
  }
  const BatchStatus status = admit(count, out);
  if (status.evaluated == 0) return status;
  do_eval_swap_batch(candidates, rows_.data(), status.evaluated, out);
  return status;
}

BatchStatus SwapEvaluator::eval_swap_batch(
    const std::vector<SwapCandidate>& candidates, Matrix& out) {
  return eval_swap_batch(candidates.data(), candidates.size(), out);
}

BatchStatus SwapEvaluator::eval_tokens_batch(const TokenSeq* docs,
                                             std::size_t count, Matrix& out) {
  const BatchStatus status = admit(count, out);
  if (status.evaluated == 0) return status;
  docs_.resize(status.evaluated);
  for (std::size_t i = 0; i < status.evaluated; ++i) docs_[i] = &docs[i];
  do_eval_tokens_batch(docs_.data(), rows_.data(), status.evaluated, out);
  return status;
}

BatchStatus SwapEvaluator::eval_tokens_batch(const std::vector<TokenSeq>& docs,
                                             Matrix& out) {
  return eval_tokens_batch(docs.data(), docs.size(), out);
}

void SwapEvaluator::do_eval_swap_batch(const SwapCandidate* candidates,
                                       const std::size_t* rows,
                                       std::size_t count, Matrix& out) {
  for (std::size_t m = 0; m < count; ++m) {
    const Vector proba = do_eval_swap(candidates[m].pos, candidates[m].word);
    std::copy(proba.begin(), proba.end(), out.row(rows[m]));
  }
}

void SwapEvaluator::do_eval_tokens_batch(const TokenSeq* const* docs,
                                         const std::size_t* rows,
                                         std::size_t count, Matrix& out) {
  for (std::size_t m = 0; m < count; ++m) {
    const Vector proba = do_eval_tokens(*docs[m]);
    std::copy(proba.begin(), proba.end(), out.row(rows[m]));
  }
}

// ---- TextClassifier --------------------------------------------------------

Matrix TextClassifier::predict_proba_batch(
    const std::vector<TokenSeq>& docs) const {
  Matrix out(docs.size(), num_classes());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    const Vector proba = predict_proba(docs[i]);
    std::copy(proba.begin(), proba.end(), out.row(i));
  }
  return out;
}

std::size_t TextClassifier::predict(const TokenSeq& tokens) const {
  const Vector proba = predict_proba(tokens);
  return static_cast<std::size_t>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
}

std::unique_ptr<SwapEvaluator> TextClassifier::make_swap_evaluator(
    const TokenSeq& base) const {
  return std::make_unique<FullForwardEvaluator>(*this, base);
}

}  // namespace advtext
