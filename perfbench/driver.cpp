// perfbench_driver — the measuring half of the benchmark; run.py builds it,
// runs it from a fresh run directory and turns its raw output into metrics.
//
//   perfbench_driver prepare --workload W --seed S --seconds T
//       Generates the task, trains the victim model and draws the seeded
//       inputs into task.bin and model.bin. Untimed.
//   perfbench_driver sweep --workload W --seconds T --trace 0|1 --budget-s B
//       news_lstm_greedy / news_wcnn_joint: a serial in-process sweep
//       through evaluate_attack over the prepared documents. B is the
//       time the run has left; the sweeps are cut to fit in it.
//   perfbench_driver daemon --workload yelp_bow_daemon --seed S --seconds T
//       --trace 0|1 --advtextd PATH --lo-rate R --hi-rate R
//       The real advtextd under open-loop load at two rates, then
//       closed-loop load at the connection cap.
//
// Every subcommand checks its outputs and prints one raw JSON object on
// stdout; the list "errors" is empty when every check passed. With
// --trace 1 the run also repeats its attacks through a tracing decorator
// and reports spans and layer probes.
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "service_load.h"
#include "src/core/attack_types.h"
#include "src/data/serialize.h"
#include "src/data/synthetic.h"
#include "src/eval/pipeline.h"
#include "src/nn/bow_classifier.h"
#include "src/nn/checkpoint.h"
#include "src/nn/lstm.h"
#include "src/nn/trainer.h"
#include "src/nn/wcnn.h"
#include "src/service/protocol.h"
#include "src/tensor/tensor.h"
#include "src/util/args.h"
#include "src/util/stopwatch.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace advtext;
namespace fs = std::filesystem;

constexpr const char* kTaskFile = "task.bin";
constexpr const char* kModelFile = "model.bin";
// Set-up is repeated inside every run and reported as the median, because
// one cold build is too short to time on its own.
constexpr int kSetupReps = 7;
// Connection cap of the load generator: the vCPU count of the 4-vCPU guest
// the daemon workload was sized on.
constexpr std::size_t kMaxConns = 4;
// Shares of --seconds for the daemon's three load phases: the low rate,
// the high rate, and the closed loop. At 30 s and 20 / 40 jobs/s the rate
// steps send 120 and 180 jobs, so p90 has more than ten samples beyond it;
// the closed loop gets the rest, because its throughput is the noisiest
// end-to-end figure on a shared 4-vCPU guest.
constexpr double kLoShare = 0.2;
constexpr double kHiShare = 0.15;
constexpr double kClosedShare = 0.65;
constexpr std::size_t kWarmupJobs = 20;

struct Workload {
  std::string model;  // advtextd --model kind
  bool news = true;   // News task, else Yelp
  // Sweeps attack a fixed number of documents, this rate times --seconds.
  // A fixed input size makes a seed's documents the same on every commit,
  // so a change alters the time they take, not which documents it is
  // measured on. The rates size the sample: on a 4-vCPU x86 KVM guest the
  // LSTM sweep attacked ~2.5 documents/s, so its 90 documents at
  // --seconds 30 take ~36 s, and the WCNN sweep ~20/s. With 66 LSTM
  // documents the seed-to-seed spread of its throughput was near 0.2.
  double docs_per_second = 0.0;
  std::string checkpoint;  // sweep checkpoint file, empty = none
};

Workload find_workload(const std::string& name) {
  if (name == "news_lstm_greedy") return {"lstm", true, 3.0, ""};
  if (name == "news_wcnn_joint") return {"wcnn", true, 20.0, "sweep.ckpt"};
  if (name == "yelp_bow_daemon") return {"bow", false, 0.0, ""};
  throw std::invalid_argument("unknown workload: " + name);
}

// At least 60 documents, so the p80 of per-document times has ten beyond.
std::size_t sweep_docs(const Workload& wl, double seconds) {
  return std::max<std::size_t>(
      60, static_cast<std::size_t>(std::ceil(wl.docs_per_second * seconds)));
}

// The attack configuration of each workload: the paper cell it stands for.
JointAttackConfig attack_config(const Workload& wl) {
  JointAttackConfig joint;
  if (wl.model == "lstm") {
    // Table 2 "[19]*": objective greedy, word-only, lambda_w = 0.5.
    joint.enable_sentence = false;
    joint.word_fraction = 0.5;
    joint.word_method = WordAttackMethod::kObjectiveGreedy;
  }
  // Otherwise Alg. 1 with the defaults advtextd jobs use: lambda_s = 0.2,
  // lambda_w = 0.2, gradient-guided greedy, LM filter on.
  return joint;
}

std::unique_ptr<TrainableClassifier> build_model(const std::string& kind,
                                                 const SynthTask& task) {
  if (kind == "lstm") {
    LstmConfig config;
    config.embed_dim = task.config.embedding_dim;
    config.hidden = 24;
    config.seed = task.config.seed + 2;
    return std::make_unique<LstmClassifier>(config, Matrix(task.paragram));
  }
  if (kind == "wcnn") {
    WCnnConfig config;
    config.embed_dim = task.config.embedding_dim;
    config.num_filters = 96;
    config.seed = task.config.seed + 1;
    return std::make_unique<WCnn>(config, Matrix(task.paragram));
  }
  BowClassifierConfig config;
  config.vocab_size = static_cast<std::size_t>(task.vocab.size());
  return std::make_unique<BowClassifier>(config);
}

// ---- raw JSON output -------------------------------------------------------

class Json {
 public:
  Json& open(char bracket) {
    sep();
    out_ += bracket;
    first_.push_back(true);
    return *this;
  }
  Json& close(char bracket) {
    out_ += bracket;
    first_.pop_back();
    return *this;
  }
  Json& key(const std::string& name) {
    sep();
    out_ += '"' + name + "\":";
    after_key_ = true;
    return *this;
  }
  Json& num(double value) {
    sep();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ += buf;
    return *this;
  }
  Json& str(const std::string& value) {
    sep();
    out_ += '"';
    for (const char c : value) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += (c == '\n') ? ' ' : c;
    }
    out_ += '"';
    return *this;
  }
  const std::string& text() const { return out_; }

 private:
  void sep() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

long peak_rss_kb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// ---- output checks ---------------------------------------------------------

// Re-scores a record's adversarial document with the victim model and
// verifies the flip and the lambda budgets. No golden values: any change
// that flips different documents still passes if each record is true.
void check_record(const TextClassifier& model, const Document& original,
                  const DocRecord& record, const JointAttackConfig& joint,
                  std::vector<std::string>& errors) {
  const std::string where = "doc " + std::to_string(record.doc_index) + ": ";
  if (record.kind == 2) return;  // counted as failed, not as wrong
  const std::size_t label = static_cast<std::size_t>(original.label);
  if (record.kind == 0) {
    if (model.predict(original.flatten()) == label) {
      errors.push_back(where + "skipped but classified correctly");
    }
    return;
  }
  const Document& adv = record.attack.adv_doc;
  const TokenSeq adv_tokens = adv.flatten();
  const bool flipped = model.predict(adv_tokens) != label;
  if (flipped != (record.flipped != 0)) {
    errors.push_back(where + "re-scored flip disagrees with the record");
  }
  if (adv.sentences.size() != original.sentences.size()) {
    errors.push_back(where + "sentence count changed");
    return;
  }
  const auto cap = [](double fraction, std::size_t n) {
    return static_cast<std::size_t>(
        std::ceil(fraction * static_cast<double>(n)));
  };
  const std::size_t sentence_cap =
      joint.enable_sentence ? cap(joint.sentence_fraction,
                                  original.sentences.size())
                            : 0;
  if (record.attack.sentences_changed > sentence_cap) {
    errors.push_back(where + "sentence budget exceeded");
  }
  if (record.attack.words_changed > cap(joint.word_fraction,
                                        adv_tokens.size())) {
    errors.push_back(where + "word budget exceeded");
  }
  if (!joint.enable_sentence) {
    const TokenSeq tokens = original.flatten();
    std::size_t changed = 0;
    for (std::size_t i = 0; i < tokens.size() && i < adv_tokens.size(); ++i) {
      changed += tokens[i] != adv_tokens[i] ? 1 : 0;
    }
    if (tokens.size() != adv_tokens.size() ||
        changed != record.attack.words_changed) {
      errors.push_back(where + "changed words disagree with the record");
    }
  }
}

void check_sequence(const std::vector<DocRecord>& records,
                    std::vector<std::string>& errors) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].doc_index != i) {
      errors.push_back("records out of order at " + std::to_string(i));
      return;
    }
  }
}

bool same_records(const std::vector<DocRecord>& a,
                  const std::vector<DocRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (encode_doc_result(a[i]) != encode_doc_result(b[i])) return false;
  }
  return true;
}

void write_records(Json& json, const std::vector<DocRecord>& records) {
  json.key("records").open('[');
  for (const DocRecord& r : records) {
    json.open('{')
        .key("doc").num(static_cast<double>(r.doc_index))
        .key("kind").num(static_cast<double>(r.kind))
        .key("seconds").num(r.attack.seconds)
        .key("queries").num(static_cast<double>(r.attack.queries))
        .key("flipped").num(static_cast<double>(r.flipped))
        .key("words").num(static_cast<double>(r.attack.words_changed))
        .key("sentences").num(static_cast<double>(r.attack.sentences_changed))
        .key("termination").num(static_cast<double>(r.attack.termination))
        .close('}');
  }
  json.close(']');
}

// ---- layer probes (traced run only) ----------------------------------------

// Times the text layer's two entry points on the attacked documents, per
// function. (Their share of the attack comes from the text.candidates
// spans; the probe says which function it went to.)
void probe_text(const TaskAttackContext& context, const SynthTask& task,
                const std::vector<DocRecord>& records,
                const JointAttackConfig& joint, Json& json) {
  double neighbor_s = 0.0;
  double candidates_s = 0.0;
  double paraphrases = 0.0;
  double kept = 0.0;
  double unfiltered = 0.0;
  double docs = 0.0;
  for (const DocRecord& r : records) {
    if (r.kind != 1) continue;
    const Document& doc = task.test.docs[r.doc_index];
    Stopwatch watch;
    const auto sets = context.paraphraser().neighbor_sets(doc, context.wmd());
    neighbor_s += watch.elapsed_seconds();
    for (const auto& set : sets) paraphrases += static_cast<double>(set.size());
    const TokenSeq tokens = doc.flatten();
    watch.reset();
    const auto with_lm = context.word_index().candidates_for(
        tokens, joint.use_lm_filter ? &context.lm() : nullptr);
    candidates_s += watch.elapsed_seconds();
    const auto without_lm =
        context.word_index().candidates_for(tokens, nullptr);
    for (const auto& list : with_lm) kept += static_cast<double>(list.size());
    for (const auto& list : without_lm) {
      unfiltered += static_cast<double>(list.size());
    }
    docs += 1.0;
  }
  json.key("text").open('{')
      .key("docs").num(docs)
      .key("neighbor_sets_s").num(neighbor_s)
      .key("candidates_s").num(candidates_s)
      .key("paraphrases").num(paraphrases)
      .key("candidates_kept").num(kept)
      .key("candidates_unfiltered").num(unfiltered)
      .close('}');
}

double attack_seconds(const std::vector<DocRecord>& records) {
  double total = 0.0;
  for (const DocRecord& r : records) total += r.kind == 1 ? r.attack.seconds : 0.0;
  return total;
}

double gemm_gflops(std::size_t k, std::size_t n, std::uint64_t seed) {
  const std::size_t m = kScoreChunkRows;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> a(m * k), b(n * k), c(m * n);
  for (float& x : a) x = dist(rng);
  for (float& x : b) x = dist(rng);
  std::size_t calls = 0;
  Stopwatch watch;
  double elapsed = 0.0;
  while (elapsed < 0.25) {
    for (int i = 0; i < 64; ++i) gemm_nt(a.data(), m, b.data(), n, k, c.data());
    calls += 64;
    elapsed = watch.elapsed_seconds();
  }
  volatile float sink = c[0];
  (void)sink;
  return 2.0 * static_cast<double>(m * n * k * calls) / elapsed / 1e9;
}

// Diagnostic only: a fixed scalar loop that does not touch the library.
double calibration_ms() {
  Stopwatch watch;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 20000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile std::uint64_t sink = x;
  (void)sink;
  return watch.elapsed_ms();
}

void write_spans(Json& json, const Tracer& tracer) {
  json.key("spans").open('[');
  for (const Span& s : tracer.spans()) {
    json.open('[')
        .str(s.name).num(s.start).num(s.end)
        .num(static_cast<double>(s.parent)).num(static_cast<double>(s.id))
        .num(static_cast<double>(s.rows)).num(static_cast<double>(s.steps))
        .close(']');
  }
  json.close(']');
}

void write_probes(Json& json, std::uint64_t seed) {
  json.key("gemm_lstm_gflops").num(gemm_gflops(24, 96, seed));
  json.key("gemm_wcnn_gflops").num(gemm_gflops(48, 96, seed + 1));
  json.key("calib_ms").num(calibration_ms());
}

void write_errors(Json& json, const std::vector<std::string>& errors) {
  json.key("errors").open('[');
  for (const std::string& e : errors) json.str(e);
  json.close(']');
}

// ---- set-up ----------------------------------------------------------------

// Everything between the serialized task + params and a ready attack
// context. Destruction order matters: the context views the task.
struct Loaded {
  std::unique_ptr<SynthTask> task;
  std::unique_ptr<TrainableClassifier> model;
  std::unique_ptr<TaskAttackContext> context;

  void load(const std::string& kind) {
    context.reset();
    model.reset();
    task.reset();
    task = std::make_unique<SynthTask>(io::load_task(kTaskFile));
    model = build_model(kind, *task);
    load_model(*model, kModelFile);
    context = std::make_unique<TaskAttackContext>(*task);
  }
};

// ---- prepare ---------------------------------------------------------------

// Draws a sweep's documents from the pool, stratified by length: the pool
// is sorted by token count and cut into one stratum per document, and the
// seed picks one document from each. Attack cost grows steeply with length,
// so this keeps every seed's sample at the pool's length mix.
std::vector<Document> stratified_sample(const std::vector<Document>& pool,
                                        std::size_t count,
                                        std::uint64_t seed) {
  std::vector<std::size_t> order(pool.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&pool](std::size_t a, std::size_t b) {
                     return pool[a].num_words() < pool[b].num_words();
                   });
  std::mt19937_64 rng(seed);
  std::vector<Document> chosen;
  for (std::size_t s = 0; s < count; ++s) {
    std::uniform_int_distribution<std::size_t> pick(
        s * pool.size() / count, (s + 1) * pool.size() / count - 1);
    chosen.push_back(pool[order[pick(rng)]]);
  }
  return chosen;
}

// The victim is a fixture: the repository's News / Yelp task shapes with
// their default generator seeds, and a model trained on them. The workload
// seed draws the inputs: which documents a sweep attacks, one of the two in
// each length stratum of a pool twice the sample, and for the daemon the
// job stream (see cmd_daemon). Seeding the whole task instead would train
// a different victim per seed, whose difficulty alone moves every metric by
// tens of percent; a larger pool makes seeds share fewer documents, and
// the spread between seeds grows with it.
int cmd_prepare(const Workload& wl, std::uint64_t seed, double seconds) {
  SynthTask task;
  if (wl.news) {
    const std::size_t docs = sweep_docs(wl, seconds);
    SynthConfig config = make_news().config;
    config.num_test = 2 * docs;
    task = make_task(config);
    task.test.docs = stratified_sample(task.test.docs, docs, seed);
  } else {
    task = make_yelp();
  }
  auto model = build_model(wl.model, task);
  TrainConfig train;  // the repo's defaults: 12 epochs
  if (wl.model == "lstm") train.learning_rate = 5e-3;
  (void)train_classifier(*model, task.train, train);
  io::save_task(task, kTaskFile);
  save_model(*model, kModelFile);
  std::printf("{}\n");
  return 0;
}

// ---- in-process sweeps -------------------------------------------------------

// Share of the time left that the untraced sweep may use when a traced
// repeat follows it, and that the traced repeat may use; the rest is for
// the checks and the layer probes.
constexpr double kUntracedShareWithTrace = 0.4;
constexpr double kTracedShare = 0.8;

// Milliseconds a sweep may run: 4x --seconds, and no more than `share` of
// the run's time left. A guard, not the measure: a change that makes the
// sweep much slower ends it early, and run.py counts the documents it did
// not reach as failed instead of the run dying at its time limit.
double sweep_guard_ms(double seconds, const Deadline& run_end, double share) {
  return std::min(4000.0 * seconds, share * run_end.remaining_ms());
}

int cmd_sweep(const Workload& wl, double seconds, bool trace,
              double budget_s) {
  const Deadline run_end = Deadline::after_ms(1e3 * budget_s);
  std::vector<double> setup;
  Loaded loaded;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Stopwatch watch;
    loaded.load(wl.model);
    setup.push_back(watch.elapsed_seconds());
  }
  const SynthTask& task = *loaded.task;
  const JointAttackConfig joint = attack_config(wl);

  AttackEvalConfig config;
  config.joint = joint;
  config.checkpoint_path = wl.checkpoint;
  {
    AttackEvalConfig warmup = config;  // one untimed document
    warmup.max_docs = 1;
    warmup.checkpoint_path.clear();
    (void)evaluate_attack(*loaded.model, task, *loaded.context, warmup);
  }

  // Each record with the sweep time at which it was committed, so a traced
  // repeat that is cut short compares against the same prefix.
  std::vector<DocRecord> records;
  std::vector<double> committed_s;
  Stopwatch sweep_watch;
  AttackEvalConfig timed = config;
  timed.on_commit = [&](const DocRecord& r) {
    records.push_back(r);
    committed_s.push_back(sweep_watch.elapsed_seconds());
  };
  if (!wl.checkpoint.empty()) fs::remove(wl.checkpoint);
  timed.sweep_deadline = Deadline::after_ms(sweep_guard_ms(
      seconds, run_end, trace ? kUntracedShareWithTrace : 1.0));
  sweep_watch.reset();
  const AttackEvalResult result =
      evaluate_attack(*loaded.model, task, *loaded.context, timed);
  const double sweep_s = sweep_watch.elapsed_seconds();
  const long rss_kb = peak_rss_kb();

  std::vector<std::string> errors;
  check_sequence(records, errors);
  if (records.size() != result.docs_evaluated) {
    errors.push_back("on_commit saw a different number of records");
  }
  for (const DocRecord& r : records) {
    check_record(*loaded.model, task.test.docs[r.doc_index], r, joint, errors);
  }

  Json json;
  json.open('{').key("setup_s").open('[');
  for (const double s : setup) json.num(s);
  json.close(']');
  json.key("sweep_s").num(sweep_s);
  json.key("sample_docs").num(static_cast<double>(task.test.docs.size()));
  json.key("peak_rss_kb").num(static_cast<double>(rss_kb));
  write_records(json, records);

  if (trace && !records.empty()) {
    // The same documents again, through the tracing decorator, under the
    // same kind of guard. A cut repeat is a prefix of the untraced sweep.
    Tracer tracer(wl.checkpoint);
    TracingClassifier traced_model(*loaded.model, tracer);
    std::vector<DocRecord> traced;
    Stopwatch traced_watch;
    double traced_s = 0.0;
    AttackEvalConfig traced_config = config;
    traced_config.max_docs = records.size();
    traced_config.on_commit = [&](const DocRecord& r) {
      tracer.commit(r);
      traced.push_back(r);
      traced_s = traced_watch.elapsed_seconds();
    };
    traced_config.sweep_deadline =
        Deadline::after_ms(sweep_guard_ms(seconds, run_end, kTracedShare));
    if (!wl.checkpoint.empty()) fs::remove(wl.checkpoint);
    tracer.sweep_begin();
    traced_watch.reset();
    (void)evaluate_attack(traced_model, task, *loaded.context, traced_config);
    tracer.sweep_end();
    const std::size_t n = std::min(traced.size(), records.size());
    const std::vector<DocRecord> prefix(
        records.begin(), records.begin() + static_cast<std::ptrdiff_t>(n));
    if (traced.size() != n || !same_records(prefix, traced)) {
      errors.push_back("traced records differ from untraced records");
    }
    json.key("traced").open('{');
    json.key("docs").num(static_cast<double>(traced.size()));
    // Both sweeps timed to the commit of the last traced record.
    json.key("sweep_s").num(traced_s);
    json.key("untraced_s").num(n == 0 ? 0.0 : committed_s[n - 1]);
    json.key("attack_s").num(attack_seconds(traced));
    write_spans(json, tracer);
    probe_text(*loaded.context, task, traced, joint, json);
    write_probes(json, task.config.seed);
    json.close('}');
  }
  write_errors(json, errors);
  json.close('}');
  std::printf("%s\n", json.text().c_str());
  return 0;
}

// ---- the daemon workload -----------------------------------------------------

std::vector<std::string> daemon_argv(const std::string& advtextd,
                                     const std::string& state_dir) {
  // Everything not named here stays at advtextd's defaults.
  return {advtextd,    "--task",      kTaskFile, "--model",
          "bow",       "--params",    kModelFile, "--socket",
          "d.sock",    "--state-dir", state_dir,  "--workers",
          "2"};
}

void write_jobs(Json& json, const char* phase,
                const std::vector<JobTrace>& jobs, double seconds) {
  json.key(phase).open('{');
  json.key("seconds").num(seconds);
  json.key("jobs").open('[');
  for (const JobTrace& job : jobs) {
    std::string status = "ok";
    if (job.rejected) {
      status = std::string("refused:") + to_string(job.reject_reason);
    } else if (job.timed_out) {
      status = "timeout";
    } else if (job.protocol_error) {
      status = "protocol";
    } else if (job.transport_error) {
      status = "transport";
    } else if (!job.completed ||
               decode_job_complete(job.complete_payload).termination !=
                   TerminationReason::kSucceeded) {
      status = "error";
    }
    json.open('{')
        .key("status").str(status)
        .key("docs").num(static_cast<double>(job.docs_requested))
        .key("due").num(job.due)
        .key("connect").num(job.connect)
        .key("accepted").num(job.accepted)
        .key("complete").num(job.complete)
        .key("doc_times").open('[');
    for (const double t : job.doc_times) json.num(t);
    json.close(']').close('}');
  }
  json.close(']').close('}');
}

// Every job's DocResult stream must equal an in-process evaluate_attack
// over the same documents, record for record (the wire encoding excludes
// timing), and its JobComplete must carry the same aggregates.
void check_jobs(const std::vector<JobTrace>& jobs,
                const std::vector<std::string>& reference_payloads,
                const std::vector<AttackEvalResult>& reference_results,
                std::vector<std::string>& errors) {
  for (const JobTrace& job : jobs) {
    if (!job.completed) continue;  // counted as failed
    const std::size_t k = static_cast<std::size_t>(job.docs_requested);
    if (job.doc_payloads.size() != k) {
      errors.push_back("job streamed " +
                       std::to_string(job.doc_payloads.size()) +
                       " records for " + std::to_string(k) + " docs");
      continue;
    }
    for (std::size_t i = 0; i < k; ++i) {
      if (job.doc_payloads[i] != reference_payloads[i]) {
        errors.push_back("job record " + std::to_string(i) +
                         " differs from the in-process sweep");
        break;
      }
    }
    const JobComplete done = decode_job_complete(job.complete_payload);
    const AttackEvalResult& ref = reference_results[k - 1];
    if (done.docs_evaluated != ref.docs_evaluated ||
        done.docs_attacked != ref.docs_attacked ||
        done.docs_failed != ref.docs_failed ||
        done.sweep_queries_used != ref.sweep_queries_used ||
        done.success_rate != ref.success_rate ||
        done.adversarial_accuracy != ref.adversarial_accuracy) {
      errors.push_back("JobComplete differs from the in-process sweep");
    }
  }
}

// The state directory's filesystem, recorded because fsync cost (and its
// noise) depends on it.
std::string filesystem_of(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::size_t directory_bytes(const std::string& dir) {
  std::size_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

int cmd_daemon(const Workload& wl, std::uint64_t seed, double seconds,
               bool trace, const std::string& advtextd, double lo_rate,
               double hi_rate) {
  // The job mix: 1-4 documents per job, seeded. The protocol has no
  // document offset, so every job attacks a prefix of the test split.
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> size_dist(1, 4);
  const auto job_sizes = [&](std::size_t n) {
    std::vector<std::uint64_t> sizes(n);
    for (auto& s : sizes) s = size_dist(rng);
    return sizes;
  };
  const auto poisson = [&](double rate, std::size_t n) {
    std::exponential_distribution<double> gap(rate);
    std::vector<double> due(n);
    double t = 0.0;
    for (auto& d : due) {
      t += gap(rng);
      d = t;
    }
    return due;
  };

  JobRequest base;
  base.client = "perfbench";
  base.model = "bow";

  // Set-up: spawn to the first accepted connection, on a fresh state dir
  // each time; the measured daemon's own start-up is the last sample.
  std::vector<double> setup;
  for (int rep = 0; rep + 1 < kSetupReps; ++rep) {
    const std::string state = "state-setup" + std::to_string(rep);
    DaemonProcess daemon(daemon_argv(advtextd, state), "advtextd.log");
    setup.push_back(daemon.wait_ready("d.sock", 30.0));
    (void)daemon.stop(10.0, nullptr);
    fs::remove_all(state);
  }
  DaemonProcess daemon(daemon_argv(advtextd, "state"), "advtextd.log");
  setup.push_back(daemon.wait_ready("d.sock", 30.0));

  const std::vector<std::uint64_t> warm_sizes = job_sizes(kWarmupJobs);
  const std::vector<double> warm_due(kWarmupJobs, 0.0);
  const std::vector<JobTrace> warmup =
      run_open_loop("d.sock", base, warm_due, warm_sizes, 1);

  const auto step_jobs = [seconds](double share, double rate) {
    return static_cast<std::size_t>(std::lround(share * seconds * rate));
  };
  const std::size_t lo_jobs = step_jobs(kLoShare, lo_rate);
  const std::vector<std::uint64_t> lo_sizes = job_sizes(lo_jobs);
  const std::vector<double> lo_due = poisson(lo_rate, lo_jobs);
  const std::vector<JobTrace> lo =
      run_open_loop("d.sock", base, lo_due, lo_sizes, kMaxConns);
  const std::size_t hi_jobs = step_jobs(kHiShare, hi_rate);
  const std::vector<std::uint64_t> hi_sizes = job_sizes(hi_jobs);
  const std::vector<double> hi_due = poisson(hi_rate, hi_jobs);
  const std::vector<JobTrace> hi =
      run_open_loop("d.sock", base, hi_due, hi_sizes, kMaxConns);
  const std::vector<JobTrace> closed =
      run_closed_loop("d.sock", base, job_sizes(4096), kMaxConns,
                      kClosedShare * seconds);

  long rss_kb = 0;
  const int status = daemon.stop(10.0, &rss_kb);
  std::vector<std::string> errors;
  // advtextd exits 5 after a SIGTERM drain.
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 5) {
    errors.push_back("advtextd did not drain cleanly on SIGTERM");
  }
  std::size_t accepted = 0;
  for (const auto* phase : {&warmup, &lo, &hi, &closed}) {
    for (const JobTrace& job : *phase) accepted += job.accepted >= 0.0 ? 1 : 0;
  }
  const std::size_t state_bytes = directory_bytes("state");
  const std::string state_fs = filesystem_of("state");

  // The in-process reference over the same documents, with the attack
  // configuration advtextd derives from these requests.
  Loaded loaded;
  loaded.load(wl.model);
  AttackEvalConfig reference;
  reference.joint = attack_config(wl);
  std::vector<DocRecord> reference_records;
  std::vector<AttackEvalResult> reference_results;
  for (std::size_t k = 1; k <= 4; ++k) {
    AttackEvalConfig config = reference;
    config.max_docs = k;
    std::vector<DocRecord> records;
    config.on_commit = [&records](const DocRecord& r) { records.push_back(r); };
    reference_results.push_back(
        evaluate_attack(*loaded.model, *loaded.task, *loaded.context, config));
    reference_records = records;
  }
  std::vector<std::string> reference_payloads;
  for (const DocRecord& r : reference_records) {
    reference_payloads.push_back(encode_doc_result(r));
    check_record(*loaded.model, loaded.task->test.docs[r.doc_index], r,
                 reference.joint, errors);
  }
  check_sequence(reference_records, errors);
  for (const auto* phase : {&warmup, &lo, &hi, &closed}) {
    check_jobs(*phase, reference_payloads, reference_results, errors);
  }

  Json json;
  json.open('{').key("setup_s").open('[');
  for (const double s : setup) json.num(s);
  json.close(']');
  json.key("peak_rss_kb").num(static_cast<double>(rss_kb));
  json.key("state_bytes").num(static_cast<double>(state_bytes));
  json.key("state_fs").str(state_fs);
  json.key("jobs_accepted").num(static_cast<double>(accepted));
  write_records(json, reference_records);
  json.key("phases").open('{');
  write_jobs(json, "lo", lo, kLoShare * seconds);
  write_jobs(json, "hi", hi, kHiShare * seconds);
  write_jobs(json, "closed", closed, kClosedShare * seconds);
  json.close('}');

  if (trace) {
    // The daemon's attack layers: the same job documents through an
    // in-process sweep, untraced and traced, alternating, repeated so the
    // sweep is long enough to time.
    constexpr int kReps = 40;
    Tracer tracer;
    TracingClassifier traced_model(*loaded.model, tracer);
    double untraced_s = 0.0;
    double traced_s = 0.0;
    double traced_attack_s = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      AttackEvalConfig config = reference;
      config.max_docs = 4;
      Stopwatch watch;
      (void)evaluate_attack(*loaded.model, *loaded.task, *loaded.context,
                            config);
      untraced_s += watch.elapsed_seconds();
      std::vector<DocRecord> traced;
      config.on_commit = [&](const DocRecord& r) {
        tracer.commit(r);
        traced.push_back(r);
      };
      tracer.sweep_begin();
      watch.reset();
      (void)evaluate_attack(traced_model, *loaded.task, *loaded.context,
                            config);
      traced_s += watch.elapsed_seconds();
      tracer.sweep_end();
      traced_attack_s += attack_seconds(traced);
      if (!same_records(reference_records, traced)) {
        errors.push_back("traced records differ from untraced records");
      }
    }
    json.key("traced").open('{');
    json.key("docs").num(static_cast<double>(reference_records.size()));
    json.key("sweep_s").num(traced_s);
    json.key("untraced_s").num(untraced_s);
    json.key("attack_s").num(traced_attack_s);
    write_spans(json, tracer);
    probe_text(*loaded.context, *loaded.task, reference_records,
               reference.joint, json);
    write_probes(json, loaded.task->config.seed);
    json.close('}');
  }
  write_errors(json, errors);
  json.close('}');
  std::printf("%s\n", json.text().c_str());
  return 0;
}

int run(int argc, char** argv) {
  const ArgParser args(argc, argv);
  if (args.positional().empty()) {
    std::fprintf(stderr, "usage: perfbench_driver prepare|sweep|daemon ...\n");
    return 2;
  }
  const std::string command = args.positional()[0];
  const Workload wl = find_workload(args.get_string("workload"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  if (command == "prepare") return cmd_prepare(wl, seed, seconds);
  if (command == "sweep") {
    return cmd_sweep(wl, seconds, trace, args.get_double("budget-s", 170.0));
  }
  if (command == "daemon") {
    return cmd_daemon(wl, seed, seconds, trace, args.get_string("advtextd"),
                      args.get_double("lo-rate", 0.0),
                      args.get_double("hi-rate", 0.0));
  }
  std::fprintf(stderr, "unknown command %s\n", command.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 1;
  }
}
