// Tests for serialization (round trips, corruption detection, model
// checkpoints) and the command-line flag parser.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/data/serialize.h"
#include "src/data/synthetic.h"
#include "src/eval/metrics.h"
#include "src/nn/checkpoint.h"
#include "src/nn/supervisor.h"
#include "src/nn/trainer.h"
#include "src/nn/wcnn.h"
#include "src/tensor/serialize.h"
#include "src/text/serialize.h"
#include "src/util/args.h"
#include "src/util/serialize.h"
#include "tests/state_dir.h"

namespace advtext {
namespace {

struct TempFile {
  explicit TempFile(const std::string& name)
      : scoped("advtext_test_", name), path(scoped.path()) {}
  ScopedTempFile scoped;
  std::string path;
};

TEST(Serialize, PrimitiveRoundTrips) {
  std::stringstream buffer;
  io::write_u64(buffer, 0xdeadbeefcafeULL);
  io::write_double(buffer, -3.25);
  io::write_string(buffer, "hello world");
  EXPECT_EQ(io::read_u64(buffer), 0xdeadbeefcafeULL);
  EXPECT_DOUBLE_EQ(io::read_double(buffer), -3.25);
  EXPECT_EQ(io::read_string(buffer), "hello world");
}

TEST(Serialize, MatrixVectorRoundTrips) {
  std::stringstream buffer;
  Rng rng(1);
  Matrix m(7, 5);
  m.fill_normal(rng, 1.0f);
  Vector v = {1.5f, -2.5f, 0.0f};
  io::write_matrix(buffer, m);
  io::write_vector(buffer, v);
  EXPECT_EQ(io::read_matrix(buffer), m);
  EXPECT_EQ(io::read_vector(buffer), v);
}

TEST(Serialize, TypedVectorsRoundTrip) {
  std::stringstream buffer;
  const std::vector<double> doubles = {1.0, -2.0, 3.5};
  const std::vector<int> ints = {-1, 0, 7, 42};
  const std::vector<bool> bools = {true, false, true, true};
  io::write_doubles(buffer, doubles);
  io::write_ints(buffer, ints);
  io::write_bools(buffer, bools);
  EXPECT_EQ(io::read_doubles(buffer), doubles);
  EXPECT_EQ(io::read_ints(buffer), ints);
  EXPECT_EQ(io::read_bools(buffer), bools);
}

TEST(Serialize, VocabRoundTripPreservesIds) {
  Vocab vocab;
  vocab.add("alpha");
  vocab.add("beta");
  vocab.add("gamma");
  std::stringstream buffer;
  io::write_vocab(buffer, vocab);
  const Vocab loaded = io::read_vocab(buffer);
  EXPECT_EQ(loaded.size(), vocab.size());
  for (WordId id = 0; id < vocab.size(); ++id) {
    EXPECT_EQ(loaded.word(id), vocab.word(id));
  }
}

TEST(Serialize, MagicRejectsGarbage) {
  std::stringstream buffer;
  buffer << "NOTMAGIC and more";
  EXPECT_THROW(io::read_magic(buffer), std::runtime_error);
}

TEST(Serialize, TruncatedReadThrows) {
  std::stringstream buffer;
  io::write_u64(buffer, 100);  // declares a 100-byte string...
  buffer << "short";           // ...but provides 5 bytes
  EXPECT_THROW(io::read_string(buffer), std::runtime_error);
}

TEST(Serialize, ImplausibleLengthFieldsThrowBeforeAllocating) {
  // A flipped high byte in any u64 length prefix must be rejected by the
  // per-field cap (naming the field), not attempted as a multi-GB resize.
  {
    std::stringstream buffer;
    io::write_u64(buffer, 1ULL << 60);
    try {
      io::read_string(buffer);
      FAIL() << "read_string accepted a 2^60-byte length";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("string.bytes"),
                std::string::npos)
          << e.what();
    }
  }
  {
    std::stringstream buffer;
    io::write_u64(buffer, 1ULL << 58);
    EXPECT_THROW(io::read_vector(buffer), std::runtime_error);
  }
  {
    // Rows and cols individually plausible, product implausible: the
    // overflow-safe product check must fire.
    std::stringstream buffer;
    io::write_u64(buffer, 1ULL << 23);
    io::write_u64(buffer, 1ULL << 23);
    try {
      io::read_matrix(buffer);
      FAIL() << "read_matrix accepted 2^46 elements";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("matrix"), std::string::npos)
          << e.what();
    }
  }
  {
    std::stringstream buffer;
    io::write_u64(buffer, ~0ULL);  // rows = 2^64 - 1
    try {
      io::read_matrix(buffer);
      FAIL() << "read_matrix accepted 2^64 rows";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("matrix.rows"), std::string::npos)
          << e.what();
    }
  }
  {
    std::stringstream buffer;
    io::write_u64(buffer, 1ULL << 40);
    EXPECT_THROW(io::read_ints(buffer), std::runtime_error);
  }
  {
    std::stringstream buffer;
    io::write_u64(buffer, 1ULL << 40);
    EXPECT_THROW(io::read_doubles(buffer), std::runtime_error);
  }
  {
    std::stringstream buffer;
    io::write_u64(buffer, 1ULL << 40);
    EXPECT_THROW(io::read_bools(buffer), std::runtime_error);
  }
}

TEST(Serialize, CorruptedTaskArtifactIsRejected) {
  SynthConfig config = make_yelp(7).config;
  config.num_train = 20;
  config.num_test = 5;
  const SynthTask task = make_task(config);
  TempFile file("corrupt_task.bin");
  io::save_task(task, file.path);

  // Corruption 1: flip the high byte of the first length prefix (the tag
  // string directly after the 8-byte magic) so it claims an absurd size.
  std::string bytes;
  {
    std::ifstream in(file.path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  ASSERT_GT(bytes.size(), sizeof(io::kMagic) + 8);
  std::string flipped = bytes;
  flipped[sizeof(io::kMagic) + 7] = '\x7f';  // tag length high byte
  {
    std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
    out << flipped;
  }
  // The envelope checksum catches the flip before the reader ever parses
  // the bogus length field.
  try {
    io::load_task(file.path);
    FAIL() << "load_task accepted a corrupt length field";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
  }

  // Same flip with the footer stripped: the envelope refuses the file
  // before any reader parses it (the read-size caps have their own tests).
  {
    std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
    out << flipped.substr(0, flipped.size() - 16);  // strip envelope footer
  }
  try {
    io::load_task(file.path);
    FAIL() << "load_task accepted a footer-less file";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no integrity footer"),
              std::string::npos)
        << e.what();
  }

  // Corruption 2: truncate the artifact mid-stream.
  {
    std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() / 2);
  }
  EXPECT_THROW(io::load_task(file.path), std::runtime_error);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(Artifact, RoundTripReturnsTheVerifiedPayload) {
  TempFile file("artifact_roundtrip.bin");
  const std::string payload = "resilience payload \x01\x02\x00 with nuls";
  io::save_artifact(file.path, std::string(payload.data(), payload.size()));
  EXPECT_EQ(io::load_artifact(file.path),
            std::string(payload.data(), payload.size()));
}

TEST(Artifact, PayloadBitFlipUnderIntactFooterIsRejected) {
  TempFile file("artifact_bitflip.bin");
  io::save_artifact(file.path, std::string(256, 'x'));
  std::string bytes = read_file(file.path);
  ASSERT_GT(bytes.size(), 32u);
  bytes[bytes.size() / 4] ^= 0x01;  // payload byte; footer intact
  write_file(file.path, bytes);
  try {
    (void)io::load_artifact(file.path);
    FAIL() << "bit-flipped artifact accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(Artifact, FooterlessFileIsRefused) {
  TempFile file("artifact_footerless.bin");
  write_file(file.path, std::string(64, 'y'));  // raw bytes, no footer
  try {
    (void)io::load_artifact(file.path);
    FAIL() << "footer-less artifact accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no integrity footer"), std::string::npos) << what;
    EXPECT_NE(what.find(file.path), std::string::npos) << what;
  }
}

TEST(Artifact, UnknownFutureVersionIsRejected) {
  TempFile file("artifact_future.bin");
  const std::string payload(64, 'z');
  std::string bytes = payload;
  const std::uint32_t crc =
      io::crc32(payload.data(), payload.size());
  const std::uint32_t version = 99;
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
  bytes.append(io::kFooterMagic, sizeof(io::kFooterMagic));
  write_file(file.path, bytes);
  EXPECT_THROW(io::load_artifact(file.path), std::runtime_error);
}

TEST(Artifact, RotationShiftsTheOlderSnapshotUpOneGeneration) {
  TempFile base("rotation_base.bin");
  const SnapshotRotation rotation(base.path);
  rotation.write("older snapshot");
  rotation.write("newer snapshot");
  EXPECT_EQ(io::load_artifact(SnapshotRotation::generation_path(base.path, 1)),
            "newer snapshot");
  EXPECT_EQ(io::load_artifact(SnapshotRotation::generation_path(base.path, 2)),
            "older snapshot");
  // A third write drops the oldest: two generations are kept.
  rotation.write("newest snapshot");
  EXPECT_EQ(io::load_artifact(SnapshotRotation::generation_path(base.path, 2)),
            "newer snapshot");
}

TEST(Serialize, TaskRoundTripIsExact) {
  SynthConfig config = make_yelp(5).config;
  config.num_train = 30;
  config.num_test = 10;
  const SynthTask task = make_task(config);
  TempFile file("task.bin");
  io::save_task(task, file.path);
  const SynthTask loaded = io::load_task(file.path);
  EXPECT_EQ(loaded.config.name, task.config.name);
  EXPECT_EQ(loaded.config.seed, task.config.seed);
  EXPECT_EQ(loaded.train.size(), task.train.size());
  for (std::size_t i = 0; i < task.train.size(); ++i) {
    EXPECT_EQ(loaded.train.docs[i].flatten(),
              task.train.docs[i].flatten());
    EXPECT_EQ(loaded.train.docs[i].label, task.train.docs[i].label);
  }
  EXPECT_EQ(loaded.paragram, task.paragram);
  EXPECT_EQ(loaded.word_polarity, task.word_polarity);
  EXPECT_EQ(loaded.concept_members, task.concept_members);
  EXPECT_EQ(loaded.is_function_word, task.is_function_word);
  // The oracle must behave identically after the round trip.
  for (const Document& doc : task.test.docs) {
    EXPECT_EQ(loaded.oracle_label(doc), task.oracle_label(doc));
  }
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(io::load_task("/nonexistent/path/task.bin"),
               std::runtime_error);
}

TEST(Checkpoint, ModelRoundTripPreservesPredictions) {
  SynthConfig config = make_yelp(6).config;
  config.num_train = 60;
  config.num_test = 20;
  const SynthTask task = make_task(config);
  WCnnConfig wconfig;
  wconfig.embed_dim = task.config.embedding_dim;
  wconfig.num_filters = 16;
  WCnn model(wconfig, Matrix(task.paragram));
  TrainConfig train;
  train.epochs = 3;
  train_classifier(model, task.train, train);

  TempFile file("model.bin");
  save_model(model, file.path);

  WCnn restored(wconfig, Matrix(task.paragram));
  load_model(restored, file.path);
  for (const Document& doc : task.test.docs) {
    const TokenSeq tokens = doc.flatten();
    const Vector a = model.predict_proba(tokens);
    const Vector b = restored.predict_proba(tokens);
    for (std::size_t c = 0; c < a.size(); ++c) {
      EXPECT_FLOAT_EQ(a[c], b[c]);
    }
  }
}

TEST(Checkpoint, ShapeMismatchThrows) {
  SynthConfig config = make_yelp(7).config;
  config.num_train = 20;
  config.num_test = 5;
  const SynthTask task = make_task(config);
  WCnnConfig small;
  small.embed_dim = task.config.embedding_dim;
  small.num_filters = 8;
  WCnn model(small, Matrix(task.paragram));
  TempFile file("model_mismatch.bin");
  save_model(model, file.path);
  WCnnConfig big = small;
  big.num_filters = 16;
  WCnn other(big, Matrix(task.paragram));
  EXPECT_THROW(load_model(other, file.path), std::runtime_error);
}

// ---- ArgParser ---------------------------------------------------------------

TEST(Args, PositionalAndFlags) {
  const char* argv[] = {"prog", "attack", "--lw=0.2", "--docs", "25",
                        "--verbose"};
  const ArgParser args(6, argv);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "attack");
  EXPECT_DOUBLE_EQ(args.get_double("lw"), 0.2);
  EXPECT_EQ(args.get_int("docs"), 25);
  EXPECT_TRUE(args.get_bool("verbose"));
  EXPECT_FALSE(args.get_bool("quiet"));
}

TEST(Args, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  const ArgParser args(1, argv);
  EXPECT_EQ(args.get_string("model", "lstm"), "lstm");
  EXPECT_EQ(args.get_int("epochs", 12), 12);
  EXPECT_DOUBLE_EQ(args.get_double("lr", 0.01), 0.01);
}

TEST(Args, EqualsAndSpaceSyntaxAgree) {
  const char* argv1[] = {"prog", "--name=value"};
  const char* argv2[] = {"prog", "--name", "value"};
  EXPECT_EQ(ArgParser(2, argv1).get_string("name"),
            ArgParser(3, argv2).get_string("name"));
}

TEST(Args, MalformedValuesThrow) {
  const char* argv[] = {"prog", "--count", "abc", "--ratio", "x.y",
                        "--flag", "maybe"};
  const ArgParser args(7, argv);
  EXPECT_THROW(args.get_int("count"), std::invalid_argument);
  EXPECT_THROW(args.get_double("ratio"), std::invalid_argument);
  EXPECT_THROW(args.get_bool("flag"), std::invalid_argument);
}

TEST(Args, BareDoubleDashThrows) {
  const char* argv[] = {"prog", "--"};
  EXPECT_THROW(ArgParser(2, argv), std::invalid_argument);
}

TEST(Args, UnknownFlagDetection) {
  const char* argv[] = {"prog", "--known=1", "--typo=2"};
  const ArgParser args(3, argv);
  const auto unknown = args.unknown_flags({"known", "other"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Args, BoolExplicitValues) {
  const char* argv[] = {"prog", "--a=true", "--b=false", "--c=1", "--d=0"};
  const ArgParser args(5, argv);
  EXPECT_TRUE(args.get_bool("a"));
  EXPECT_FALSE(args.get_bool("b"));
  EXPECT_TRUE(args.get_bool("c"));
  EXPECT_FALSE(args.get_bool("d"));
}

}  // namespace
}  // namespace advtext
