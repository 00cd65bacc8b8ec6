// Live char-LM sampling over the serving stack — a trained checkpoint
// end to end: model_io load -> per-layer fixed pruners -> EnginePool ->
// LiveServer workers -> greedy decoding off Response.dense_h with the
// checkpoint's own classifier, then a record->replay digest check that
// proves the interactive run reproduces bit-for-bit through the
// virtual-clock path.
//
// Usage: serve_char_lm [--model=data/models/tiny_char_lm.zssm]
//                      [--steps=120]
//
// The trained model is the tiny 2-layer checkpoint zss_train writes
// (docs/serving.md "Serving trained models"); the sample is only as
// good as a 30k-char synthetic corpus allows, but the text is readably
// word-shaped — the point is the serving path, not the perplexity.
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "core/zss.h"
#include "serve/model.h"
#include "serve/protocol.h"
#include "serve/trace.h"
#include "serve/worker.h"

using namespace zss;

namespace {

std::string parse_str(int argc, char** argv, const std::string& name,
                      const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      parse_str(argc, argv, "model", "data/models/tiny_char_lm.zssm");
  const auto steps = static_cast<num::Index>(
      std::atol(parse_str(argc, argv, "steps", "120").c_str()));

  core::LoadedModel loaded;
  std::string error;
  if (!core::load_model(path, loaded, &error)) {
    std::fprintf(stderr, "serve_char_lm: %s\n", error.c_str());
    std::fprintf(stderr, "train one with: zss_train --task=char --layers=2 "
                         "--hidden=32 --sparsity=0.6 --out=%s\n",
                 path.c_str());
    return 1;
  }
  const core::ModelSpec& spec = loaded.spec;
  std::printf("loaded %s: layers=%u dh=%u vocab=%u thresholds:", path.c_str(),
              spec.layers, spec.hidden, spec.vocab);
  for (const float t : spec.thresholds) std::printf(" %.4f", t);
  std::printf("\n");

  // The serving view: borrowed cells, one fixed pruner per layer at the
  // checkpoint's exported threshold (exactly what zss_serve builds).
  std::vector<const nn::LstmCell*> cells;
  for (const auto& c : loaded.cells) cells.push_back(c.get());
  std::vector<core::StatePruner> pruners;
  pruners.reserve(spec.thresholds.size());
  std::vector<const core::StatePruner*> pruner_ptrs;
  for (const float t : spec.thresholds) {
    pruners.emplace_back(core::PrunerConfig::fixed(t));
  }
  for (const auto& p : pruners) pruner_ptrs.push_back(&p);
  serve::ServeModel model;
  model.cells = cells;
  model.pruners = pruner_ptrs;
  model.embedding = loaded.embedding.get();
  model.name = path;
  model.vocab = static_cast<num::Index>(spec.vocab);

  const serve::PoolConfig pc;
  serve::EnginePool pool(model, pc);

  // Greedy decoding is a submit -> serve -> argmax -> submit loop: the
  // sink copies the dense top-layer h (the span dies with the sink
  // call), the main thread runs the checkpoint's classifier on it.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<float> dense;
  bool ready = false;
  serve::DigestTable live_digests;
  const serve::ResponseSink sink = [&](const serve::Response& r) {
    std::lock_guard<std::mutex> lock(mu);
    serve::fold_response(live_digests, r);
    dense.assign(r.dense_h.begin(), r.dense_h.end());
    ready = true;
    cv.notify_one();
  };

  serve::LiveConfig lc;
  lc.record = true;
  serve::LiveServer server(pool, sink, lc);

  // symbol() needs a corpus instance; the id->char table is fixed.
  const auto corpus = data::CharCorpus::generate({});
  num::Matrix logits;
  num::Matrix h_row(1, static_cast<num::Index>(spec.hidden));
  const serve::SessionId session = 1;
  num::Index token = 26;  // corpus symbol table: ' ' (a word boundary)

  std::printf("greedy sample (%lld chars):\n",
              static_cast<long long>(steps));
  std::string text;
  for (num::Index i = 0; i < steps; ++i) {
    if (!server.submit(session, token).has_value()) break;
    server.flush_all();
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ready; });
    ready = false;
    std::copy(dense.begin(), dense.end(), h_row.row(0).begin());
    loaded.classifier->forward(h_row, logits);
    num::Index best = 0;
    for (num::Index v = 1; v < logits.cols(); ++v) {
      if (logits(0, v) > logits(0, best)) best = v;
    }
    token = best;
    text += corpus.symbol(token);
  }
  std::printf("%s\n", text.c_str());

  server.shutdown();

  // Determinism receipt: replay the recorded live run through a fresh
  // pool and compare the per-session digest tables bit-for-bit.
  serve::EnginePool replay_pool(model, pc);
  serve::DigestTable replay_digests;
  const serve::ResponseSink replay_sink = [&](const serve::Response& r) {
    serve::fold_response(replay_digests, r);
  };
  serve::replay(replay_pool, server.recorded_trace(), replay_sink);
  if (replay_digests != live_digests) {
    std::fprintf(stderr, "record->replay digest MISMATCH\n");
    return 1;
  }
  std::printf("record->replay digests match (%zu sessions, %lld steps)\n",
              live_digests.size(), static_cast<long long>(steps));
  return 0;
}
