#include "core/model_io.h"

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>

#include "num/kernels.h"  // kMaxCellClip
#include "num/rng.h"
#include "store/crc32c.h"

namespace zss::core {
namespace {

constexpr char kMagic[4] = {'Z', 'S', 'S', 'M'};
constexpr std::uint32_t kVersionParams = 1;  // bare parameter dump
constexpr std::uint32_t kVersionModel = 2;   // arch header + CRC trailer

// Hard sanity bounds on the v2 architecture header. Generous for
// anything this lab trains, tight enough that a forged header cannot
// drive a pathological allocation before the size check runs.
constexpr std::uint32_t kMaxLayers = 8;
constexpr std::uint32_t kMaxHidden = 16384;
constexpr std::uint32_t kMaxVocab = 1u << 20;
constexpr std::uint32_t kMaxEmbedDim = 4096;
// The int8 cell update's largest defined clip (num::kMaxCellClip:
// f * cq must fit an i32), not a sanity bound like the others.
constexpr std::uint32_t kMaxCellClip =
    static_cast<std::uint32_t>(num::kMaxCellClip);
constexpr std::uint32_t kMaxNameLen = 4096;
constexpr std::uint64_t kMaxFileBytes = 1ull << 30;  // 1 GiB

// Fixed-width header fields after magic+version: layers, hidden,
// input_dim, vocab, embed_dim, has_quant_grid, quant_pre_clip,
// quant_c_clip — 8 x 4 bytes, then layers x f32 thresholds.
constexpr std::uint64_t kSpecFixedBytes = 8 * 4;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

bool write_bytes(std::FILE* f, const void* p, std::size_t n) {
  return std::fwrite(p, 1, n, f) == n;
}

bool read_bytes(std::FILE* f, void* p, std::size_t n) {
  return std::fread(p, 1, n, f) == n;
}

/// Size of the file on disk, or -1. Everything the loaders read is
/// bounded against this up front — a corrupt length field can never
/// request more than the file actually holds.
std::int64_t file_size(std::FILE* f) {
  if (std::fseek(f, 0, SEEK_END) != 0) return -1;
  const long n = std::ftell(f);
  if (n < 0 || std::fseek(f, 0, SEEK_SET) != 0) return -1;
  return n;
}

/// Accumulates CRC32C over everything written, so the v2 trailer is
/// computed in one pass with the payload.
struct CrcWriter {
  std::FILE* f = nullptr;
  std::uint32_t crc = 0;
  bool ok = true;

  void put(const void* p, std::size_t n) {
    if (!ok) return;
    ok = write_bytes(f, p, n);
    crc = store::crc32c(crc, p, n);
  }
  void put_u32(std::uint32_t v) { put(&v, sizeof v); }
  void put_f32(float v) { put(&v, sizeof v); }
  void put_i64(std::int64_t v) { put(&v, sizeof v); }
};

/// Cursor over an in-memory file image; every read is bounds-checked
/// even after the total size has been validated (belt and braces).
struct Cursor {
  const unsigned char* data = nullptr;
  std::uint64_t size = 0;
  std::uint64_t pos = 0;

  std::uint64_t remaining() const { return size - pos; }
  bool take(void* out, std::uint64_t n) {
    if (n > remaining()) return false;
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
  bool take_u32(std::uint32_t* v) { return take(v, sizeof *v); }
  bool take_f32(float* v) { return take(v, sizeof *v); }
  bool take_i64(std::int64_t* v) { return take(v, sizeof *v); }
};

bool validate_spec(const ModelSpec& s, std::string* error) {
  if (s.layers < 1 || s.layers > kMaxLayers) {
    return fail(error, "model spec: layer count " + std::to_string(s.layers) +
                           " outside [1, " + std::to_string(kMaxLayers) + "]");
  }
  if (s.hidden < 1 || s.hidden > kMaxHidden) {
    return fail(error, "model spec: hidden dim " + std::to_string(s.hidden) +
                           " outside [1, " + std::to_string(kMaxHidden) + "]");
  }
  if (s.vocab < 2 || s.vocab > kMaxVocab) {
    return fail(error, "model spec: vocab size " + std::to_string(s.vocab) +
                           " outside [2, " + std::to_string(kMaxVocab) + "]");
  }
  if (s.embed_dim > kMaxEmbedDim) {
    return fail(error,
                "model spec: embedding dim " + std::to_string(s.embed_dim) +
                    " exceeds " + std::to_string(kMaxEmbedDim));
  }
  const std::uint32_t want_input = s.embed_dim > 0 ? s.embed_dim : s.vocab;
  if (s.input_dim != want_input) {
    return fail(error, "model spec: input dim " + std::to_string(s.input_dim) +
                           " inconsistent with " +
                           (s.embed_dim > 0 ? "embedding dim "
                                            : "one-hot vocab ") +
                           std::to_string(want_input));
  }
  if (s.has_quant_grid > 1) {
    return fail(error, "model spec: has_quant_grid flag must be 0 or 1, got " +
                           std::to_string(s.has_quant_grid));
  }
  if (s.has_quant_grid == 1) {
    if (!std::isfinite(s.quant_pre_clip) || s.quant_pre_clip <= 0.0f) {
      return fail(error, "model spec: quantization pre-activation clip must "
                         "be finite and positive");
    }
    if (s.quant_c_clip < 1 || s.quant_c_clip > kMaxCellClip) {
      return fail(error, "model spec: quantization cell clip " +
                             std::to_string(s.quant_c_clip) + " outside [1, " +
                             std::to_string(kMaxCellClip) + "]");
    }
  }
  if (s.thresholds.size() != s.layers) {
    return fail(error,
                "model spec: " + std::to_string(s.thresholds.size()) +
                    " pruning thresholds for " + std::to_string(s.layers) +
                    " layers");
  }
  for (std::size_t l = 0; l < s.thresholds.size(); ++l) {
    const float t = s.thresholds[l];
    if (!std::isfinite(t) || t < 0.0f) {
      return fail(error, "model spec: layer " + std::to_string(l) +
                             " pruning threshold must be finite and >= 0");
    }
  }
  return true;
}

/// Exact byte size a valid v2 file with this spec must have. With the
/// spec bounds above this cannot overflow u64 (worst case is well under
/// 2^40), and the loader additionally caps it at kMaxFileBytes.
std::uint64_t expected_file_bytes(const ModelSpec& spec,
                                  const std::vector<ExpectedParam>& params) {
  std::uint64_t total = 4 + 4;                    // magic + version
  total += kSpecFixedBytes;                       // fixed spec fields
  total += 4ull * spec.layers;                    // thresholds
  total += 4;                                     // param count
  for (const ExpectedParam& p : params) {
    total += 4 + p.name.size() + 8 + 8;           // name_len, name, rows, cols
    total += 4ull * static_cast<std::uint64_t>(p.rows) *
             static_cast<std::uint64_t>(p.cols);  // f32 payload
  }
  total += 4;                                     // CRC32C trailer
  return total;
}

}  // namespace

std::vector<ExpectedParam> expected_parameters(const ModelSpec& spec) {
  const auto dh = static_cast<num::Index>(spec.hidden);
  const auto vocab = static_cast<num::Index>(spec.vocab);
  std::vector<ExpectedParam> out;
  out.reserve(2 + 3 * spec.layers + 2);
  if (spec.embed_dim > 0) {
    out.push_back(
        {"embed.table", vocab, static_cast<num::Index>(spec.embed_dim)});
  }
  for (std::uint32_t l = 0; l < spec.layers; ++l) {
    const num::Index in_l =
        l == 0 ? static_cast<num::Index>(spec.input_dim) : dh;
    const std::string prefix = "layer" + std::to_string(l) + ".lstm.";
    out.push_back({prefix + "wx", 4 * dh, in_l});
    out.push_back({prefix + "wh", 4 * dh, dh});
    out.push_back({prefix + "b", 1, 4 * dh});
  }
  out.push_back({"classifier.w", vocab, dh});
  out.push_back({"classifier.b", 1, vocab});
  return out;
}

bool save_parameters(const std::string& path,
                     std::span<nn::Parameter* const> params) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return false;
  if (!write_bytes(f.get(), kMagic, 4)) return false;
  if (!write_bytes(f.get(), &kVersionParams, sizeof kVersionParams)) {
    return false;
  }
  const auto count = static_cast<std::uint32_t>(params.size());
  if (!write_bytes(f.get(), &count, sizeof count)) return false;
  for (const nn::Parameter* p : params) {
    const auto name_len = static_cast<std::uint32_t>(p->name.size());
    if (!write_bytes(f.get(), &name_len, sizeof name_len)) return false;
    if (!write_bytes(f.get(), p->name.data(), name_len)) return false;
    const std::int64_t rows = p->value.rows();
    const std::int64_t cols = p->value.cols();
    if (!write_bytes(f.get(), &rows, sizeof rows)) return false;
    if (!write_bytes(f.get(), &cols, sizeof cols)) return false;
    const auto flat = p->value.flat();
    if (!write_bytes(f.get(), flat.data(), flat.size() * sizeof(float))) {
      return false;
    }
  }
  return true;
}

bool load_parameters(const std::string& path,
                     std::span<nn::Parameter* const> params,
                     std::string* error) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return fail(error, path + ": cannot open for reading");
  const std::int64_t total = file_size(f.get());
  if (total < 0) return fail(error, path + ": cannot determine file size");
  std::uint64_t remaining = static_cast<std::uint64_t>(total);

  char magic[4];
  if (remaining < 4 || !read_bytes(f.get(), magic, 4)) {
    return fail(error, path + ": truncated before magic");
  }
  remaining -= 4;
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return fail(error, path + ": bad magic (not a ZSSM file)");
  }
  std::uint32_t version = 0;
  if (remaining < sizeof version ||
      !read_bytes(f.get(), &version, sizeof version)) {
    return fail(error, path + ": truncated before version");
  }
  remaining -= sizeof version;
  if (version == kVersionModel) {
    return fail(error, path + ": version 2 is a full model checkpoint; "
                       "load it with load_model (zss_serve --model)");
  }
  if (version != kVersionParams) {
    return fail(error,
                path + ": unsupported format version " +
                    std::to_string(version));
  }
  std::uint32_t count = 0;
  if (remaining < sizeof count || !read_bytes(f.get(), &count, sizeof count)) {
    return fail(error, path + ": truncated before parameter count");
  }
  remaining -= sizeof count;
  if (count != params.size()) {
    return fail(error, path + ": has " + std::to_string(count) +
                           " parameters, expected " +
                           std::to_string(params.size()));
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    nn::Parameter* p = params[i];
    const std::string where =
        path + ": parameter " + std::to_string(i) +
        (p->name.empty() ? "" : " ('" + p->name + "')");
    std::uint32_t name_len = 0;
    if (remaining < sizeof name_len ||
        !read_bytes(f.get(), &name_len, sizeof name_len)) {
      return fail(error, where + ": truncated before name length");
    }
    remaining -= sizeof name_len;
    if (name_len > kMaxNameLen) {
      return fail(error, where + ": name length " + std::to_string(name_len) +
                             " exceeds limit " + std::to_string(kMaxNameLen));
    }
    if (name_len > remaining) {
      return fail(error, where + ": name length " + std::to_string(name_len) +
                             " exceeds remaining file size");
    }
    std::string name(name_len, '\0');
    if (!read_bytes(f.get(), name.data(), name_len)) {
      return fail(error, where + ": truncated inside name");
    }
    remaining -= name_len;
    if (!p->name.empty() && name != p->name) {
      return fail(error, where + ": file names it '" + name + "'");
    }
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    if (remaining < sizeof rows + sizeof cols ||
        !read_bytes(f.get(), &rows, sizeof rows) ||
        !read_bytes(f.get(), &cols, sizeof cols)) {
      return fail(error, where + ": truncated before shape");
    }
    remaining -= sizeof rows + sizeof cols;
    if (rows != p->value.rows() || cols != p->value.cols()) {
      return fail(error, where + ": file shape " + std::to_string(rows) + "x" +
                             std::to_string(cols) + " != expected " +
                             std::to_string(p->value.rows()) + "x" +
                             std::to_string(p->value.cols()));
    }
    auto flat = p->value.flat();
    const std::uint64_t payload = flat.size() * sizeof(float);
    if (payload > remaining) {
      return fail(error, where + ": truncated inside data (need " +
                             std::to_string(payload) + " bytes, have " +
                             std::to_string(remaining) + ")");
    }
    if (!read_bytes(f.get(), flat.data(), payload)) {
      return fail(error, where + ": truncated inside data");
    }
    remaining -= payload;
  }
  if (remaining != 0) {
    return fail(error, path + ": " + std::to_string(remaining) +
                           " trailing bytes after last parameter");
  }
  return true;
}

bool save_model(const std::string& path, const ModelSpec& spec,
                std::span<nn::Parameter* const> params, std::string* error) {
  if (!validate_spec(spec, error)) return false;
  const std::vector<ExpectedParam> expected = expected_parameters(spec);
  if (params.size() != expected.size()) {
    return fail(error, "save_model: " + std::to_string(params.size()) +
                           " parameters, spec implies " +
                           std::to_string(expected.size()));
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const ExpectedParam& e = expected[i];
    const nn::Parameter* p = params[i];
    if (p->name != e.name) {
      return fail(error, "save_model: parameter " + std::to_string(i) +
                             " named '" + p->name + "', canon requires '" +
                             e.name + "'");
    }
    if (p->value.rows() != e.rows || p->value.cols() != e.cols) {
      return fail(error, "save_model: parameter '" + e.name + "' has shape " +
                             std::to_string(p->value.rows()) + "x" +
                             std::to_string(p->value.cols()) +
                             ", canon requires " + std::to_string(e.rows) +
                             "x" + std::to_string(e.cols));
    }
  }

  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return fail(error, path + ": cannot open for writing");
  CrcWriter w{f.get()};
  w.put(kMagic, 4);
  w.put_u32(kVersionModel);
  w.put_u32(spec.layers);
  w.put_u32(spec.hidden);
  w.put_u32(spec.input_dim);
  w.put_u32(spec.vocab);
  w.put_u32(spec.embed_dim);
  w.put_u32(spec.has_quant_grid);
  w.put_f32(spec.quant_pre_clip);
  w.put_u32(spec.quant_c_clip);
  for (float t : spec.thresholds) w.put_f32(t);
  w.put_u32(static_cast<std::uint32_t>(params.size()));
  for (const nn::Parameter* p : params) {
    w.put_u32(static_cast<std::uint32_t>(p->name.size()));
    w.put(p->name.data(), p->name.size());
    w.put_i64(p->value.rows());
    w.put_i64(p->value.cols());
    const auto flat = p->value.flat();
    w.put(flat.data(), flat.size() * sizeof(float));
  }
  // Trailer: CRC over everything before it (not fed back into w.crc).
  const std::uint32_t crc = w.crc;
  if (!w.ok || !write_bytes(f.get(), &crc, sizeof crc)) {
    return fail(error, path + ": write failed");
  }
  return true;
}

bool load_model(const std::string& path, LoadedModel& out,
                std::string* error) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return fail(error, path + ": cannot open for reading");
  const std::int64_t total = file_size(f.get());
  if (total < 0) return fail(error, path + ": cannot determine file size");
  const auto usize = static_cast<std::uint64_t>(total);
  if (usize > kMaxFileBytes) {
    return fail(error, path + ": " + std::to_string(usize) +
                           " bytes exceeds the " +
                           std::to_string(kMaxFileBytes) +
                           "-byte checkpoint limit");
  }
  if (usize < 4 + 4 + kSpecFixedBytes) {
    return fail(error, path + ": " + std::to_string(usize) +
                           " bytes is smaller than the fixed header");
  }

  char magic[4];
  if (!read_bytes(f.get(), magic, 4)) {
    return fail(error, path + ": read failed at magic");
  }
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return fail(error, path + ": bad magic (not a ZSSM file)");
  }
  std::uint32_t version = 0;
  if (!read_bytes(f.get(), &version, sizeof version)) {
    return fail(error, path + ": read failed at version");
  }
  if (version == kVersionParams) {
    return fail(error, path + ": version 1 file is a bare parameter dump "
                       "with no architecture header; re-save it with "
                       "zss_train (which writes version 2 checkpoints)");
  }
  if (version != kVersionModel) {
    return fail(error,
                path + ": unsupported format version " +
                    std::to_string(version));
  }

  // Fixed spec fields. All bounds-checked before anything is sized off
  // of them.
  ModelSpec spec;
  if (!read_bytes(f.get(), &spec.layers, 4) ||
      !read_bytes(f.get(), &spec.hidden, 4) ||
      !read_bytes(f.get(), &spec.input_dim, 4) ||
      !read_bytes(f.get(), &spec.vocab, 4) ||
      !read_bytes(f.get(), &spec.embed_dim, 4) ||
      !read_bytes(f.get(), &spec.has_quant_grid, 4) ||
      !read_bytes(f.get(), &spec.quant_pre_clip, 4) ||
      !read_bytes(f.get(), &spec.quant_c_clip, 4)) {
    return fail(error, path + ": read failed inside architecture header");
  }
  // Validate everything except thresholds first: the threshold count
  // (== layers) must be trusted before reading them.
  {
    ModelSpec probe = spec;
    probe.thresholds.assign(probe.layers <= kMaxLayers ? probe.layers : 0,
                            0.0f);
    std::string why;
    if (!validate_spec(probe, &why)) {
      return fail(error, path + ": " + why);
    }
  }
  const std::uint64_t thresh_bytes = 4ull * spec.layers;
  if (usize < 4 + 4 + kSpecFixedBytes + thresh_bytes) {
    return fail(error, path + ": truncated inside per-layer thresholds");
  }
  spec.thresholds.resize(spec.layers);
  if (!read_bytes(f.get(), spec.thresholds.data(), thresh_bytes)) {
    return fail(error, path + ": read failed inside per-layer thresholds");
  }
  {
    std::string why;
    if (!validate_spec(spec, &why)) return fail(error, path + ": " + why);
  }

  // The header now fully determines the file: refuse any size mismatch
  // before allocating parameter storage.
  const std::vector<ExpectedParam> expected = expected_parameters(spec);
  const std::uint64_t want = expected_file_bytes(spec, expected);
  if (want > kMaxFileBytes) {
    return fail(error, path + ": architecture implies " +
                           std::to_string(want) + " bytes, over the " +
                           std::to_string(kMaxFileBytes) +
                           "-byte checkpoint limit");
  }
  if (usize != want) {
    return fail(error, path + ": " + std::to_string(usize) +
                           " bytes on disk but the architecture header "
                           "implies exactly " +
                           std::to_string(want) +
                           " (truncated or trailing garbage)");
  }

  // Whole-file image for the CRC check; bounded by the check above.
  std::vector<unsigned char> buf(usize);
  if (std::fseek(f.get(), 0, SEEK_SET) != 0 ||
      !read_bytes(f.get(), buf.data(), buf.size())) {
    return fail(error, path + ": read failed");
  }
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, buf.data() + buf.size() - 4, 4);
  const std::uint32_t actual_crc =
      store::crc32c(0, buf.data(), buf.size() - 4);
  if (stored_crc != actual_crc) {
    char msg[96];
    std::snprintf(msg, sizeof msg,
                  "checksum mismatch (stored %08" PRIx32 ", computed %08"
                  PRIx32 ")",
                  stored_crc, actual_crc);
    return fail(error, path + ": " + msg);
  }

  // Build the modules, then bind every stored parameter by name+shape.
  out.spec = spec;
  out.cells.clear();
  out.embedding.reset();
  out.classifier.reset();
  num::Rng init_rng(1);  // placeholder init; every value is overwritten
  std::vector<nn::Parameter*> targets;
  if (spec.embed_dim > 0) {
    out.embedding = std::make_unique<nn::Embedding>(
        static_cast<num::Index>(spec.vocab),
        static_cast<num::Index>(spec.embed_dim), init_rng);
    for (nn::Parameter* p : out.embedding->parameters()) targets.push_back(p);
  }
  for (std::uint32_t l = 0; l < spec.layers; ++l) {
    const num::Index in_l = l == 0 ? static_cast<num::Index>(spec.input_dim)
                                   : static_cast<num::Index>(spec.hidden);
    out.cells.push_back(std::make_unique<nn::LstmCell>(
        in_l, static_cast<num::Index>(spec.hidden), init_rng));
    for (nn::Parameter* p : out.cells.back()->parameters()) {
      targets.push_back(p);
    }
  }
  out.classifier = std::make_unique<nn::Linear>(
      static_cast<num::Index>(spec.hidden),
      static_cast<num::Index>(spec.vocab), init_rng);
  for (nn::Parameter* p : out.classifier->parameters()) targets.push_back(p);
  if (targets.size() != expected.size()) {
    return fail(error, path + ": internal: module parameter count " +
                           std::to_string(targets.size()) +
                           " != canonical count " +
                           std::to_string(expected.size()));
  }

  Cursor c{buf.data(), buf.size() - 4,
           4 + 4 + kSpecFixedBytes + thresh_bytes};
  std::uint32_t count = 0;
  if (!c.take_u32(&count)) {
    return fail(error, path + ": truncated before parameter count");
  }
  if (count != expected.size()) {
    return fail(error, path + ": has " + std::to_string(count) +
                           " parameters but the architecture implies " +
                           std::to_string(expected.size()));
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const ExpectedParam& e = expected[i];
    std::uint32_t name_len = 0;
    if (!c.take_u32(&name_len)) {
      return fail(error, path + ": truncated before name of '" + e.name + "'");
    }
    if (name_len != e.name.size() || name_len > c.remaining()) {
      return fail(error, path + ": parameter " + std::to_string(i) +
                             ": name length " + std::to_string(name_len) +
                             " does not match canonical name '" + e.name +
                             "'");
    }
    std::string name(name_len, '\0');
    if (!c.take(name.data(), name_len)) {
      return fail(error, path + ": truncated inside name of '" + e.name +
                             "'");
    }
    if (name != e.name) {
      return fail(error, path + ": parameter " + std::to_string(i) +
                             " named '" + name + "', canon requires '" +
                             e.name + "'");
    }
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    if (!c.take_i64(&rows) || !c.take_i64(&cols)) {
      return fail(error, path + ": truncated before shape of '" + e.name +
                             "'");
    }
    if (rows != e.rows || cols != e.cols) {
      return fail(error, path + ": parameter '" + e.name + "' has shape " +
                             std::to_string(rows) + "x" +
                             std::to_string(cols) + ", canon requires " +
                             std::to_string(e.rows) + "x" +
                             std::to_string(e.cols));
    }
    auto flat = targets[i]->value.flat();
    if (!c.take(flat.data(), flat.size() * sizeof(float))) {
      return fail(error, path + ": truncated inside data of '" + e.name +
                             "'");
    }
  }
  if (c.remaining() != 0) {
    return fail(error, path + ": " + std::to_string(c.remaining()) +
                           " unexpected bytes after last parameter");
  }
  return true;
}

}  // namespace zss::core
