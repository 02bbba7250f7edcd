#include "src/util/serialize.h"

#include <array>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "src/util/io_file.h"
#include "src/util/robust.h"

namespace advtext::io {

namespace {

void fail(const char* what) {
  throw std::runtime_error(std::string("serialize: ") + what);
}

void write_raw(std::ostream& out, const void* data, std::size_t bytes) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  if (!out) fail("write failed");
}

void read_raw(std::istream& in, void* data, std::size_t bytes) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (!in) fail("read failed (truncated file?)");
}

}  // namespace

std::uint64_t read_size(std::istream& in, const char* field,
                        std::uint64_t limit) {
  const std::uint64_t size = read_u64(in);
  if (size > limit) {
    throw std::runtime_error(
        std::string("serialize: field '") + field + "' claims size " +
        std::to_string(size) + " (limit " + std::to_string(limit) +
        "); corrupt or truncated file");
  }
  return size;
}

std::uint32_t crc32(const void* data, std::size_t size) {
  // Table-driven CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

namespace {

// Footer = u32 crc + u32 version + 8-byte magic.
constexpr std::size_t kFooterBytes = 16;

void put_u32(std::string& out, std::uint32_t value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

std::uint32_t get_u32(const std::string& bytes, std::size_t offset) {
  std::uint32_t value = 0;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

}  // namespace

void save_artifact(const std::string& path, const std::string& payload) {
  FaultInjector::instance().maybe_fault("ckpt.write");
  std::string footer;
  footer.reserve(kFooterBytes);
  put_u32(footer, crc32(payload.data(), payload.size()));
  put_u32(footer, kArtifactVersion);
  footer.append(kFooterMagic, sizeof(kFooterMagic));
  AtomicFileWriter writer(path);
  writer.stream().write(payload.data(),
                        static_cast<std::streamsize>(payload.size()));
  writer.stream().write(footer.data(),
                        static_cast<std::streamsize>(footer.size()));
  writer.commit();
}

std::string load_artifact(const std::string& path) {
  FaultInjector::instance().maybe_fault("ckpt.read");
  // read_file is the "io.read" injection site: short-read and corrupt
  // damage land on the bytes here, and the footer/CRC checks below are
  // what must catch them.
  std::string bytes = read_file(path);

  const bool has_footer =
      bytes.size() >= kFooterBytes &&
      std::memcmp(bytes.data() + bytes.size() - sizeof(kFooterMagic),
                  kFooterMagic, sizeof(kFooterMagic)) == 0;
  if (!has_footer) {
    throw std::runtime_error(
        "serialize: artifact " + path +
        " has no integrity footer (torn, truncated or not an advtext "
        "artifact)");
  }
  const std::size_t payload_size = bytes.size() - kFooterBytes;
  const std::uint32_t stored_crc = get_u32(bytes, payload_size);
  const std::uint32_t version = get_u32(bytes, payload_size + 4);
  if (version > kArtifactVersion) {
    throw std::runtime_error(
        "serialize: artifact " + path + " has format version " +
        std::to_string(version) + " (this build understands up to " +
        std::to_string(kArtifactVersion) + ")");
  }
  const std::uint32_t actual_crc = crc32(bytes.data(), payload_size);
  if (actual_crc != stored_crc) {
    throw std::runtime_error("serialize: checksum mismatch in artifact " +
                             path + " (corrupt or bit-flipped file)");
  }
  bytes.resize(payload_size);
  return bytes;
}

void write_magic(std::ostream& out) { write_raw(out, kMagic, sizeof(kMagic)); }

void read_magic(std::istream& in) {
  char buffer[sizeof(kMagic)];
  read_raw(in, buffer, sizeof(buffer));
  if (std::memcmp(buffer, kMagic, sizeof(kMagic)) != 0) {
    fail("bad magic (not an advtext file)");
  }
}

void write_u64(std::ostream& out, std::uint64_t value) {
  write_raw(out, &value, sizeof(value));
}

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t value = 0;
  read_raw(in, &value, sizeof(value));
  return value;
}

void write_double(std::ostream& out, double value) {
  write_raw(out, &value, sizeof(value));
}

double read_double(std::istream& in) {
  double value = 0.0;
  read_raw(in, &value, sizeof(value));
  return value;
}

void write_string(std::ostream& out, const std::string& value) {
  write_u64(out, value.size());
  write_raw(out, value.data(), value.size());
}

std::string read_string(std::istream& in) {
  const std::uint64_t size = read_size(in, "string.bytes", kMaxStringBytes);
  std::string value(size, '\0');
  read_raw(in, value.data(), size);
  return value;
}

void write_floats(std::ostream& out, const float* data, std::size_t count) {
  write_raw(out, data, count * sizeof(float));
}

void read_floats(std::istream& in, float* data, std::size_t count) {
  read_raw(in, data, count * sizeof(float));
}

void write_doubles(std::ostream& out, const std::vector<double>& values) {
  write_u64(out, values.size());
  write_raw(out, values.data(), values.size() * sizeof(double));
}

std::vector<double> read_doubles(std::istream& in) {
  const std::uint64_t size = read_size(in, "doubles.size", kMaxElements);
  std::vector<double> values(size);
  read_raw(in, values.data(), size * sizeof(double));
  return values;
}

void write_ints(std::ostream& out, const std::vector<int>& values) {
  write_u64(out, values.size());
  write_raw(out, values.data(), values.size() * sizeof(int));
}

std::vector<int> read_ints(std::istream& in) {
  const std::uint64_t size = read_size(in, "ints.size", kMaxElements);
  std::vector<int> values(size);
  read_raw(in, values.data(), size * sizeof(int));
  return values;
}

void write_bools(std::ostream& out, const std::vector<bool>& values) {
  write_u64(out, values.size());
  for (bool v : values) {
    const char byte = v ? 1 : 0;
    write_raw(out, &byte, 1);
  }
}

std::vector<bool> read_bools(std::istream& in) {
  const std::uint64_t size = read_size(in, "bools.size", kMaxElements);
  std::vector<bool> values(size);
  for (std::uint64_t i = 0; i < size; ++i) {
    char byte = 0;
    read_raw(in, &byte, 1);
    values[i] = byte != 0;
  }
  return values;
}

void save_parameters(
    const std::vector<std::pair<const float*, std::size_t>>& tensors,
    const std::string& path) {
  std::ostringstream out;
  write_magic(out);
  write_string(out, "params");
  write_u64(out, tensors.size());
  for (const auto& [data, size] : tensors) {
    write_u64(out, size);
    write_floats(out, data, size);
  }
  if (!out) fail("write failed");
  save_artifact(path, out.str());
}

void load_parameters(
    const std::vector<std::pair<float*, std::size_t>>& tensors,
    const std::string& path) {
  std::istringstream in(load_artifact(path));
  read_magic(in);
  if (read_string(in) != "params") fail("not a parameter file");
  const std::uint64_t count =
      read_size(in, "params.count", kMaxSequences);
  if (count != tensors.size()) fail("parameter tensor count mismatch");
  for (const auto& [data, size] : tensors) {
    const std::uint64_t stored = read_u64(in);
    if (stored != size) fail("parameter tensor size mismatch");
    read_floats(in, data, size);
  }
}

}  // namespace advtext::io
