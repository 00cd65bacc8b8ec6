#include "core/model_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "num/rng.h"
#include "store/crc32c.h"

namespace zss::core {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void randomize(nn::Parameter& p, std::uint64_t seed) {
  num::Rng rng(seed);
  for (float& v : p.value.flat()) v = static_cast<float>(rng.normal());
}

TEST(ModelIoTest, RoundTripPreservesValues) {
  nn::Parameter a("a", 3, 4);
  nn::Parameter b("b", 1, 7);
  randomize(a, 1);
  randomize(b, 2);
  const std::vector<nn::Parameter*> params = {&a, &b};
  const std::string path = temp_path("roundtrip.zssm");
  ASSERT_TRUE(save_parameters(path, params));

  nn::Parameter a2("a", 3, 4);
  nn::Parameter b2("b", 1, 7);
  const std::vector<nn::Parameter*> loaded = {&a2, &b2};
  ASSERT_TRUE(load_parameters(path, loaded));
  EXPECT_EQ(a2.value, a.value);
  EXPECT_EQ(b2.value, b.value);
  std::remove(path.c_str());
}

TEST(ModelIoTest, ShapeMismatchRejected) {
  nn::Parameter a("a", 2, 2);
  randomize(a, 3);
  const std::vector<nn::Parameter*> params = {&a};
  const std::string path = temp_path("shape.zssm");
  ASSERT_TRUE(save_parameters(path, params));

  nn::Parameter wrong("a", 2, 3);
  const std::vector<nn::Parameter*> loaded = {&wrong};
  EXPECT_FALSE(load_parameters(path, loaded));
  std::remove(path.c_str());
}

TEST(ModelIoTest, CountMismatchRejected) {
  nn::Parameter a("a", 2, 2);
  const std::vector<nn::Parameter*> params = {&a};
  const std::string path = temp_path("count.zssm");
  ASSERT_TRUE(save_parameters(path, params));

  nn::Parameter b("b", 2, 2);
  const std::vector<nn::Parameter*> loaded = {&a, &b};
  EXPECT_FALSE(load_parameters(path, loaded));
  std::remove(path.c_str());
}

TEST(ModelIoTest, MissingFileRejected) {
  nn::Parameter a("a", 1, 1);
  const std::vector<nn::Parameter*> params = {&a};
  EXPECT_FALSE(load_parameters(temp_path("does_not_exist.zssm"), params));
}

TEST(ModelIoTest, CorruptMagicRejected) {
  const std::string path = temp_path("corrupt.zssm");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOPE", f);
  std::fclose(f);
  nn::Parameter a("a", 1, 1);
  const std::vector<nn::Parameter*> params = {&a};
  EXPECT_FALSE(load_parameters(path, params));
  std::remove(path.c_str());
}

TEST(ModelIoTest, TruncatedFileRejected) {
  nn::Parameter a("a", 8, 8);
  randomize(a, 4);
  const std::vector<nn::Parameter*> params = {&a};
  const std::string path = temp_path("trunc.zssm");
  ASSERT_TRUE(save_parameters(path, params));
  // Truncate the payload.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), 40), 0);
  EXPECT_FALSE(load_parameters(path, params));
  std::remove(path.c_str());
}

// --- v1 hardening -----------------------------------------------------

TEST(ModelIoTest, V1NameMismatchRejected) {
  nn::Parameter a("weights.wx", 2, 2);
  randomize(a, 5);
  const std::vector<nn::Parameter*> params = {&a};
  const std::string path = temp_path("v1name.zssm");
  ASSERT_TRUE(save_parameters(path, params));

  nn::Parameter other("weights.wh", 2, 2);
  const std::vector<nn::Parameter*> loaded = {&other};
  std::string error;
  EXPECT_FALSE(load_parameters(path, loaded, &error));
  EXPECT_NE(error.find("weights.wx"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(ModelIoTest, V1TrailingGarbageRejected) {
  nn::Parameter a("a", 2, 2);
  randomize(a, 6);
  const std::vector<nn::Parameter*> params = {&a};
  const std::string path = temp_path("v1tail.zssm");
  ASSERT_TRUE(save_parameters(path, params));
  {
    std::ofstream f(path, std::ios::app | std::ios::binary);
    f << "junk";
  }
  std::string error;
  EXPECT_FALSE(load_parameters(path, params, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
  std::remove(path.c_str());
}

// --- v2 serving checkpoints -------------------------------------------

/// A small but fully populated spec (embedding + 2 layers + grid).
ModelSpec tiny_spec() {
  ModelSpec spec;
  spec.layers = 2;
  spec.hidden = 4;
  spec.vocab = 6;
  spec.embed_dim = 3;
  spec.input_dim = 3;
  spec.has_quant_grid = 1;
  spec.quant_pre_clip = 8.0f;
  spec.quant_c_clip = 8;
  spec.thresholds = {0.05f, 0.07f};
  return spec;
}

/// Canonical parameters for a spec, randomized.
struct CanonParams {
  std::vector<nn::Parameter> storage;
  std::vector<nn::Parameter*> ptrs;

  explicit CanonParams(const ModelSpec& spec) {
    const auto expected = expected_parameters(spec);
    storage.reserve(expected.size());
    std::uint64_t seed = 11;
    for (const ExpectedParam& e : expected) {
      storage.emplace_back(e.name, e.rows, e.cols);
      randomize(storage.back(), seed++);
    }
    for (auto& p : storage) ptrs.push_back(&p);
  }
};

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(f),
                                    std::istreambuf_iterator<char>());
}

void write_file(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

/// Recomputes the CRC32C trailer after a deliberate header forgery, so
/// the loader's *semantic* checks are what reject the file (not the
/// checksum masking every other test).
void fix_crc(std::vector<unsigned char>& bytes) {
  ASSERT_GE(bytes.size(), 4u);
  const std::uint32_t crc =
      store::crc32c(0, bytes.data(), bytes.size() - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
}

std::string save_tiny(const char* name, const ModelSpec& spec) {
  CanonParams params(spec);
  const std::string path = temp_path(name);
  std::string error;
  EXPECT_TRUE(save_model(path, spec, params.ptrs, &error)) << error;
  return path;
}

TEST(ModelV2Test, RoundTripRebuildsModules) {
  const ModelSpec spec = tiny_spec();
  CanonParams params(spec);
  const std::string path = temp_path("v2rt.zssm");
  std::string error;
  ASSERT_TRUE(save_model(path, spec, params.ptrs, &error)) << error;

  LoadedModel out;
  ASSERT_TRUE(load_model(path, out, &error)) << error;
  EXPECT_EQ(out.spec.layers, spec.layers);
  EXPECT_EQ(out.spec.hidden, spec.hidden);
  EXPECT_EQ(out.spec.vocab, spec.vocab);
  EXPECT_EQ(out.spec.embed_dim, spec.embed_dim);
  EXPECT_EQ(out.spec.has_quant_grid, 1u);
  EXPECT_EQ(out.spec.quant_pre_clip, 8.0f);
  EXPECT_EQ(out.spec.quant_c_clip, 8u);
  ASSERT_EQ(out.spec.thresholds.size(), 2u);
  EXPECT_EQ(out.spec.thresholds[0], 0.05f);
  EXPECT_EQ(out.spec.thresholds[1], 0.07f);

  ASSERT_EQ(out.cells.size(), 2u);
  ASSERT_NE(out.embedding, nullptr);
  ASSERT_NE(out.classifier, nullptr);
  // Binding order: embed, per-layer {wx, wh, b}, classifier {w, b}.
  EXPECT_EQ(out.embedding->table().value, params.storage[0].value);
  EXPECT_EQ(out.cells[0]->parameters()[0]->value, params.storage[1].value);
  EXPECT_EQ(out.cells[0]->parameters()[1]->value, params.storage[2].value);
  EXPECT_EQ(out.cells[0]->parameters()[2]->value, params.storage[3].value);
  EXPECT_EQ(out.cells[1]->parameters()[0]->value, params.storage[4].value);
  EXPECT_EQ(out.classifier->weight().value, params.storage[7].value);
  EXPECT_EQ(out.classifier->bias().value, params.storage[8].value);
  // Layer dims follow the spec: layer 0 eats embed_dim, layer 1 hidden.
  EXPECT_EQ(out.cells[0]->input_dim(), 3);
  EXPECT_EQ(out.cells[1]->input_dim(), 4);
  std::remove(path.c_str());
}

TEST(ModelV2Test, OneHotSpecHasNoEmbedding) {
  ModelSpec spec = tiny_spec();
  spec.embed_dim = 0;
  spec.input_dim = spec.vocab;
  const std::string path = save_tiny("v2onehot.zssm", spec);
  LoadedModel out;
  std::string error;
  ASSERT_TRUE(load_model(path, out, &error)) << error;
  EXPECT_EQ(out.embedding, nullptr);
  EXPECT_EQ(out.cells[0]->input_dim(), 6);
  std::remove(path.c_str());
}

TEST(ModelV2Test, EveryPrefixTruncationRejected) {
  const std::string path = save_tiny("v2trunc.zssm", tiny_spec());
  const std::vector<unsigned char> whole = read_file(path);
  ASSERT_GT(whole.size(), 64u);
  const std::string cut = temp_path("v2cut.zssm");
  for (std::size_t n = 0; n < whole.size(); ++n) {
    write_file(cut, {whole.begin(), whole.begin() + n});
    LoadedModel out;
    std::string error;
    EXPECT_FALSE(load_model(cut, out, &error)) << "prefix " << n;
    EXPECT_FALSE(error.empty()) << "prefix " << n;
  }
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

TEST(ModelV2Test, TrailingGarbageRejected) {
  const std::string path = save_tiny("v2tail.zssm", tiny_spec());
  std::vector<unsigned char> bytes = read_file(path);
  bytes.push_back(0x00);
  write_file(path, bytes);
  LoadedModel out;
  std::string error;
  EXPECT_FALSE(load_model(path, out, &error));
  EXPECT_NE(error.find("truncated or trailing"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(ModelV2Test, BitRotAnywhereRejected) {
  // Flip one bit at a sweep of positions across the whole file — every
  // single one must be caught (header checks, binding checks or the
  // CRC trailer; nothing may load silently wrong).
  const std::string path = save_tiny("v2rot.zssm", tiny_spec());
  const std::vector<unsigned char> whole = read_file(path);
  const std::string rot = temp_path("v2rotten.zssm");
  for (std::size_t pos = 0; pos < whole.size(); pos += 7) {
    std::vector<unsigned char> bytes = whole;
    bytes[pos] ^= 0x10;
    write_file(rot, bytes);
    LoadedModel out;
    std::string error;
    EXPECT_FALSE(load_model(rot, out, &error)) << "flip at " << pos;
  }
  std::remove(path.c_str());
  std::remove(rot.c_str());
}

TEST(ModelV2Test, ForgedHeaderDimsRejected) {
  // Forge individual header fields and *repair the CRC*, so rejection
  // comes from the semantic validation / exact-size accounting, never
  // from a checksum coincidence. Field offsets: magic(4) version(4)
  // layers(4) hidden(4) input_dim(4) vocab(4) embed_dim(4) grid(4)
  // pre_clip(4) c_clip(4).
  const std::string path = save_tiny("v2forge.zssm", tiny_spec());
  const std::vector<unsigned char> whole = read_file(path);
  const std::string forged = temp_path("v2forged.zssm");
  struct Forgery {
    std::size_t offset;
    std::uint32_t value;
    const char* what;
  };
  const Forgery forgeries[] = {
      {8, 0, "layers = 0"},
      {8, 9, "layers > kMaxLayers"},
      {8, 3, "layers changed (size now wrong)"},
      {12, 0, "hidden = 0"},
      {12, 1u << 20, "hidden absurd"},
      {16, 9999, "input_dim disagrees with embed_dim"},
      {20, 1, "vocab < 2"},
      {20, (1u << 20) + 1, "vocab absurd"},
      {24, 8192, "embed_dim absurd"},
      {32, 0x7fc00000u, "pre_clip = NaN with grid on"},
      {36, 0, "c_clip = 0 with grid on"},
  };
  for (const Forgery& f : forgeries) {
    std::vector<unsigned char> bytes = whole;
    std::memcpy(bytes.data() + f.offset, &f.value, 4);
    fix_crc(bytes);
    write_file(forged, bytes);
    LoadedModel out;
    std::string error;
    EXPECT_FALSE(load_model(forged, out, &error)) << f.what;
    EXPECT_FALSE(error.empty()) << f.what;
  }
  std::remove(path.c_str());
  std::remove(forged.c_str());
}

TEST(ModelV2Test, CellClipCappedWhereTheInt8CellUpdateIsDefined) {
  // f * cq in the int8 cell update is an i32 product with f <= 127 and
  // |cq| <= 127 * c_clip: it fits for c_clip <= 133144 and overflows
  // (UB) from 133145 on. The loader serves the former and refuses the
  // latter with a message naming the bound.
  ModelSpec spec = tiny_spec();
  spec.quant_c_clip = 133144;
  const std::string path = save_tiny("v2cclip.zssm", spec);
  LoadedModel out;
  std::string error;
  ASSERT_TRUE(load_model(path, out, &error)) << error;
  EXPECT_EQ(out.spec.quant_c_clip, 133144u);

  std::vector<unsigned char> bytes = read_file(path);
  const std::uint32_t too_big = 133145;
  std::memcpy(bytes.data() + 36, &too_big, 4);  // c_clip field
  fix_crc(bytes);
  const std::string forged = temp_path("v2cclip_forged.zssm");
  write_file(forged, bytes);
  LoadedModel refused;
  error.clear();
  EXPECT_FALSE(load_model(forged, refused, &error));
  EXPECT_NE(error.find("cell clip 133145"), std::string::npos) << error;
  EXPECT_NE(error.find("133144"), std::string::npos) << error;
  std::remove(path.c_str());
  std::remove(forged.c_str());
}

TEST(ModelV2Test, ForgedParamNameRejected) {
  // Corrupt one byte of a stored parameter name and repair the CRC:
  // binding is by name, so the loader must refuse.
  const std::string path = save_tiny("v2pname.zssm", tiny_spec());
  std::vector<unsigned char> bytes = read_file(path);
  // First param record sits after magic+version+fixed spec+thresholds+
  // param count: 4+4+32+8+4 = 52; its name ("embed.table") starts at
  // 52+4 (after the record's own name-length field).
  ASSERT_EQ(std::memcmp(bytes.data() + 56, "embed.table", 11), 0);
  bytes[56] = 'X';
  fix_crc(bytes);
  write_file(path, bytes);
  LoadedModel out;
  std::string error;
  EXPECT_FALSE(load_model(path, out, &error));
  EXPECT_NE(error.find("embed.table"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(ModelV2Test, CrossVersionLoadsRejectedWithPointers) {
  // A v1 dump fed to load_model and a v2 checkpoint fed to
  // load_parameters must both fail with errors that say what to do.
  nn::Parameter a("a", 2, 2);
  randomize(a, 9);
  const std::vector<nn::Parameter*> v1params = {&a};
  const std::string v1path = temp_path("crossv1.zssm");
  ASSERT_TRUE(save_parameters(v1path, v1params));
  LoadedModel out;
  std::string error;
  EXPECT_FALSE(load_model(v1path, out, &error));
  EXPECT_NE(error.find("zss_train"), std::string::npos) << error;

  const std::string v2path = save_tiny("crossv2.zssm", tiny_spec());
  EXPECT_FALSE(load_parameters(v2path, v1params, &error));
  EXPECT_FALSE(error.empty());
  std::remove(v1path.c_str());
  std::remove(v2path.c_str());
}

TEST(ModelV2Test, SaveRefusesNonCanonicalParams) {
  const ModelSpec spec = tiny_spec();
  CanonParams params(spec);
  std::string error;
  // Wrong name.
  params.storage[1].name = "layer0.lstm.BOGUS";
  EXPECT_FALSE(
      save_model(temp_path("badname.zssm"), spec, params.ptrs, &error));
  EXPECT_NE(error.find("layer0.lstm.wx"), std::string::npos) << error;
  // Wrong count.
  CanonParams good(spec);
  std::vector<nn::Parameter*> short_list(good.ptrs.begin(),
                                         good.ptrs.end() - 1);
  EXPECT_FALSE(
      save_model(temp_path("badcount.zssm"), spec, short_list, &error));
  // Invalid spec (thresholds size != layers).
  ModelSpec bad = spec;
  bad.thresholds.pop_back();
  EXPECT_FALSE(
      save_model(temp_path("badspec.zssm"), bad, good.ptrs, &error));
}

TEST(ModelV2Test, ExpectedParametersMatchSpecShape) {
  const auto with_embed = expected_parameters(tiny_spec());
  ASSERT_EQ(with_embed.size(), 9u);  // embed + 2*3 + classifier w/b
  EXPECT_EQ(with_embed[0].name, "embed.table");
  EXPECT_EQ(with_embed[0].rows, 6);
  EXPECT_EQ(with_embed[0].cols, 3);
  EXPECT_EQ(with_embed[1].name, "layer0.lstm.wx");
  EXPECT_EQ(with_embed[1].rows, 16);  // 4 * hidden
  EXPECT_EQ(with_embed[1].cols, 3);   // embed_dim feeds layer 0
  EXPECT_EQ(with_embed[4].name, "layer1.lstm.wx");
  EXPECT_EQ(with_embed[4].cols, 4);   // hidden feeds layer 1
  EXPECT_EQ(with_embed[7].name, "classifier.w");
  EXPECT_EQ(with_embed[8].name, "classifier.b");

  ModelSpec onehot = tiny_spec();
  onehot.embed_dim = 0;
  onehot.input_dim = onehot.vocab;
  const auto no_embed = expected_parameters(onehot);
  ASSERT_EQ(no_embed.size(), 8u);
  EXPECT_EQ(no_embed[0].name, "layer0.lstm.wx");
  EXPECT_EQ(no_embed[0].cols, 6);  // one-hot vocab feeds layer 0
}

}  // namespace
}  // namespace zss::core
