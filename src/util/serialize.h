// Binary serialization primitives for experiment artifacts.
//
// A reproduction repo lives and dies by reproducibility: the io:: layer
// persists matrices, vocabularies, synthetic tasks and trained model
// parameters to a simple tagged little-endian binary format so that a
// trained classifier (or a generated task) can be saved once and attacked
// many times — the workflow the CLI tool (examples/advtext_cli) exposes.
//
// This header is the *bottom* of that layer: the envelope (magic, CRC
// footer), untyped primitives (u64/double/string/float buffers) and raw
// parameter checkpoints. Serializers for typed composites live next to the
// types they serialize — src/tensor/serialize.h (Matrix/Vector),
// src/text/serialize.h (Vocab/Document/Dataset) and src/data/serialize.h
// (SynthTask) — so src/util/ never includes upward in the layering DAG.
//
// Format: every file starts with a 8-byte magic ("ADVTEXT1"), then a
// sequence of tagged fields written by the functions below. No attempt is
// made at cross-endian portability (the experiments are single-machine).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace advtext {

namespace io {

/// File-level magic / version tag.
inline constexpr char kMagic[8] = {'A', 'D', 'V', 'T', 'E', 'X', 'T', '1'};

// ---- Corruption-safe artifact envelope -------------------------------------
//
// Durable artifacts (tasks, trained parameters, eval checkpoints, training
// snapshots) are wrapped in an integrity footer appended after the payload:
//
//   [payload bytes][u32 crc32(payload)][u32 format version][8-byte footer magic]
//
// The footer lives at the *end* so a truncated file loses it and is rejected
// outright, and a bit-flip anywhere in the payload fails the checksum. A
// file without the footer (a torn or short-read fragment, or not an advtext
// artifact at all) is refused.

/// Trailing marker identifying a checksummed artifact.
inline constexpr char kFooterMagic[8] = {'A', 'D', 'V', 'T', 'F', 'T', 'R',
                                         '1'};

/// Current artifact format version (1 was the footer-less layout, which is
/// no longer read).
inline constexpr std::uint32_t kArtifactVersion = 2;

/// CRC-32 (IEEE 802.3, reflected) over a byte range.
std::uint32_t crc32(const void* data, std::size_t size);

/// Publishes `payload` + integrity footer atomically (AtomicFileWriter).
/// Fault-injection site: "ckpt.write".
void save_artifact(const std::string& path, const std::string& payload);

/// Reads `path` and returns the verified payload bytes. A missing footer,
/// a CRC mismatch or an unknown future version throws std::runtime_error
/// naming the file. Fault-injection site: "ckpt.read".
[[nodiscard]] std::string load_artifact(const std::string& path);

// ---- Allocation guards for length-prefixed reads ---------------------------
//
// A single flipped byte in a u64 length field would otherwise drive a
// multi-GB resize (or a signed overflow) before the stream even reports
// truncation; every size read off disk goes through read_size with a
// per-field cap and the field name in the error. The caps are shared by the
// composite serializers in tensor/, text/ and data/.

inline constexpr std::uint64_t kMaxStringBytes = 1ULL << 26;  // 64 MiB
inline constexpr std::uint64_t kMaxElements = 1ULL << 28;     // 256M scalars
inline constexpr std::uint64_t kMaxMatrixSide = 1ULL << 24;   // 16M rows/cols
inline constexpr std::uint64_t kMaxSequences = 1ULL << 24;    // docs/sentences

/// Reads a u64 length field and throws std::runtime_error (naming `field`)
/// if it exceeds `limit` — corrupt files must fail before they allocate.
std::uint64_t read_size(std::istream& in, const char* field,
                        std::uint64_t limit);

// ---- Primitive writers/readers (throw std::runtime_error on failure) ----

void write_magic(std::ostream& out);
void read_magic(std::istream& in);

void write_u64(std::ostream& out, std::uint64_t value);
std::uint64_t read_u64(std::istream& in);

void write_double(std::ostream& out, double value);
double read_double(std::istream& in);

void write_string(std::ostream& out, const std::string& value);
std::string read_string(std::istream& in);

void write_floats(std::ostream& out, const float* data, std::size_t count);
void read_floats(std::istream& in, float* data, std::size_t count);

// ---- Untyped buffer writers/readers ----------------------------------------

void write_doubles(std::ostream& out, const std::vector<double>& values);
std::vector<double> read_doubles(std::istream& in);

void write_ints(std::ostream& out, const std::vector<int>& values);
std::vector<int> read_ints(std::istream& in);

void write_bools(std::ostream& out, const std::vector<bool>& values);
std::vector<bool> read_bools(std::istream& in);

// ---- Parameter checkpoints -------------------------------------------------

/// Saves / loads raw parameter buffers (any TrainableClassifier exposes
/// them through params()). The caller is responsible for constructing the
/// model with matching architecture before loading.
void save_parameters(const std::vector<std::pair<const float*, std::size_t>>&
                         tensors,
                     const std::string& path);
void load_parameters(
    const std::vector<std::pair<float*, std::size_t>>& tensors,
    const std::string& path);

}  // namespace io
}  // namespace advtext
