#include "trace.h"

#include <sys/stat.h>

#include <utility>

namespace perfbench {

using advtext::Matrix;
using advtext::SwapCandidate;
using advtext::SwapEvaluator;
using advtext::TokenSeq;
using advtext::Vector;

Tracer::Tracer(std::string checkpoint_path)
    : origin_(std::chrono::steady_clock::now()),
      checkpoint_path_(std::move(checkpoint_path)) {
  spans_.reserve(1u << 16);
}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

void Tracer::open(const char* name, double start) {
  Span span;
  span.name = name;
  span.start = start;
  span.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  spans_.push_back(span);
  stack_.push_back(spans_.size() - 1);
}

void Tracer::close_top(double end) {
  spans_[stack_.back()].end = end;
  stack_.pop_back();
}

void Tracer::sweep_begin() {
  const double t = now();
  open("eval.sweep", t);
  open("eval.doc", t);
  last_commit_ = t;
  predicts_in_doc_ = 0;
  attack_open_ = false;
  checkpoint_polled_ = false;
}

void Tracer::sweep_end() {
  const double t = now();
  poll_checkpoint(t);
  if (attack_open_) close_top(t);
  attack_open_ = false;
  spans_[stack_.back()].name = "eval.finish";
  close_top(t);  // the tail after the last commit
  close_top(t);  // eval.sweep
}

void Tracer::commit(const advtext::DocRecord& record) {
  const double t = now();
  if (attack_open_) {
    if (record.kind == 0) {
      // Misclassified before the attack: the clean prediction was the
      // document's only model call, so the span opened after it is empty.
      stack_.pop_back();
      spans_.pop_back();
    } else if (record.kind == 1) {
      // The flip recheck is the document's last prediction: the attack
      // ended where the recheck began, and the recheck belongs to the
      // document, not to the attack.
      Span& recheck = spans_[last_predict_];
      spans_[stack_.back()].end = recheck.start;
      stack_.pop_back();
      recheck.parent = static_cast<std::int64_t>(stack_.back());
    } else {
      close_top(t);  // the attack threw; no recheck followed
    }
    attack_open_ = false;
  }
  spans_[stack_.back()].id = static_cast<std::int64_t>(record.doc_index);
  close_top(t);
  open("eval.doc", t);
  last_commit_ = t;
  predicts_in_doc_ = 0;
  checkpoint_polled_ = false;
}

void Tracer::leaf(const char* name, double start, double end,
                  std::size_t rows, std::size_t steps) {
  if (!checkpoint_polled_) poll_checkpoint(start);
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  span.rows = rows;
  span.steps = steps;
  spans_.push_back(span);
  last_event_ = end;
}

void Tracer::phase_start(double now_s) {
  if (attack_open_) leaf("text.candidates", last_event_, now_s, 0);
}

void Tracer::predict(double start, double end) {
  leaf("nn.predict", start, end, 1);
  last_predict_ = spans_.size() - 1;
  if (predicts_in_doc_ == 0 && !stack_.empty()) {
    open("core.attack", end);
    attack_open_ = true;
    last_event_ = end;
  }
  ++predicts_in_doc_;
}

// The pipeline publishes its checkpoint (tmp file + rename) right after a
// commit, before the next document's first model call. A changed inode,
// size or mtime at that call means a publish happened in between.
void Tracer::poll_checkpoint(double now_s) {
  checkpoint_polled_ = true;
  if (checkpoint_path_.empty()) return;
  struct stat st {};
  if (::stat(checkpoint_path_.c_str(), &st) != 0) return;
  const std::string stamp =
      std::to_string(st.st_ino) + ":" + std::to_string(st.st_size) + ":" +
      std::to_string(st.st_mtim.tv_sec) + "." +
      std::to_string(st.st_mtim.tv_nsec);
  if (stamp == checkpoint_stamp_) return;
  checkpoint_stamp_ = stamp;
  leaf("util.ckpt_write", last_commit_, now_s,
       static_cast<std::size_t>(st.st_size));
}

namespace {

class TracingSwapEvaluator final : public SwapEvaluator {
 public:
  TracingSwapEvaluator(std::unique_ptr<SwapEvaluator> inner,
                       std::size_t classes, const TokenSeq& base,
                       Tracer& tracer)
      : inner_(std::move(inner)), classes_(classes), tracer_(tracer) {
    // The inner evaluator is already based on `base`; the shell only needs
    // the tokens for its own bookkeeping.
    base_tokens_ = base;
  }

 protected:
  std::size_t do_num_classes() const override { return classes_; }

  void do_rebase(const TokenSeq& tokens) override {
    const double t0 = tracer_.now();
    inner_->rebase(tokens);
    tracer_.leaf("nn.rebase", t0, tracer_.now(), 1);
  }

  Vector do_eval_swap(std::size_t pos, advtext::WordId candidate) override {
    const double t0 = tracer_.now();
    Vector out = inner_->eval_swap(pos, candidate);
    tracer_.leaf("nn.swap", t0, tracer_.now(), 1,
                 base_tokens_.size() - pos);
    return out;
  }

  Vector do_eval_tokens(const TokenSeq& tokens) override {
    const double t0 = tracer_.now();
    Vector out = inner_->eval_tokens(tokens);
    tracer_.leaf("nn.tokens", t0, tracer_.now(), 1);
    return out;
  }

  void do_eval_swap_batch(const SwapCandidate* candidates,
                          const std::size_t* rows, std::size_t count,
                          Matrix& out) override {
    const double t0 = tracer_.now();
    cands_.assign(candidates, candidates + count);
    (void)inner_->eval_swap_batch(cands_.data(), count, scratch_);
    std::size_t steps = 0;
    for (std::size_t m = 0; m < count; ++m) {
      steps += base_tokens_.size() - candidates[m].pos;
      scatter(m, rows[m], out);
    }
    tracer_.leaf("nn.swap", t0, tracer_.now(), count, steps);
  }

  void do_eval_tokens_batch(const TokenSeq* const* docs,
                            const std::size_t* rows, std::size_t count,
                            Matrix& out) override {
    const double t0 = tracer_.now();
    docs_.resize(count);
    for (std::size_t m = 0; m < count; ++m) docs_[m] = *docs[m];
    (void)inner_->eval_tokens_batch(docs_.data(), count, scratch_);
    for (std::size_t m = 0; m < count; ++m) scatter(m, rows[m], out);
    tracer_.leaf("nn.tokens", t0, tracer_.now(), count);
  }

 private:
  void scatter(std::size_t from, std::size_t to, Matrix& out) const {
    const float* src = scratch_.row(from);
    float* dst = out.row(to);
    for (std::size_t c = 0; c < classes_; ++c) dst[c] = src[c];
  }

  std::unique_ptr<SwapEvaluator> inner_;
  std::size_t classes_;
  Tracer& tracer_;
  std::vector<SwapCandidate> cands_;
  std::vector<TokenSeq> docs_;
  Matrix scratch_;
};

}  // namespace

Vector TracingClassifier::predict_proba(const TokenSeq& tokens) const {
  const double t0 = tracer_.now();
  Vector out = inner_.predict_proba(tokens);
  tracer_.predict(t0, tracer_.now());
  return out;
}

Matrix TracingClassifier::predict_proba_batch(
    const std::vector<TokenSeq>& docs) const {
  const double t0 = tracer_.now();
  Matrix out = inner_.predict_proba_batch(docs);
  tracer_.leaf("nn.predict", t0, tracer_.now(), docs.size());
  return out;
}

Matrix TracingClassifier::input_gradient(const TokenSeq& tokens,
                                         std::size_t target,
                                         Vector* proba) const {
  const double t0 = tracer_.now();
  Matrix out = inner_.input_gradient(tokens, target, proba);
  tracer_.leaf("nn.gradient", t0, tracer_.now(), 1);
  return out;
}

std::unique_ptr<SwapEvaluator> TracingClassifier::make_swap_evaluator(
    const TokenSeq& base) const {
  const double t0 = tracer_.now();
  tracer_.phase_start(t0);
  auto inner = inner_.make_swap_evaluator(base);
  tracer_.leaf("nn.evaluator", t0, tracer_.now(), 1);
  return std::make_unique<TracingSwapEvaluator>(
      std::move(inner), inner_.num_classes(), base, tracer_);
}

}  // namespace perfbench
