// Backend registry and runtime selection. See backend.h for the
// contract and docs/architecture.md for the design.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "num/simd/backend.h"

namespace zss::num::simd {

namespace {

// Priority order: widest ISA first, scalar as the guaranteed fallback.
const KernelBackend* const kRegistry[] = {
    &kAvx2Backend,
    &kNeonBackend,
    &kScalarBackend,
};

std::atomic<const KernelBackend*> g_active{nullptr};

std::string known_names() {
  std::string out;
  for (const KernelBackend* b : kRegistry) {
    if (!out.empty()) out += "|";
    out += b->name;
  }
  return out;
}

}  // namespace

std::span<const KernelBackend* const> registered_backends() {
  return kRegistry;
}

std::vector<const KernelBackend*> available_backends() {
  std::vector<const KernelBackend*> out;
  for (const KernelBackend* b : kRegistry) {
    if (b->usable()) out.push_back(b);
  }
  return out;
}

const KernelBackend& resolve_backend(const char* requested,
                                     std::string* warning) {
  if (requested != nullptr && requested[0] != '\0') {
    for (const KernelBackend* b : kRegistry) {
      if (std::strcmp(b->name, requested) != 0) continue;
      if (b->usable()) return *b;
      if (warning != nullptr) {
        *warning = std::string("kernel backend '") + requested +
                   (b->implemented()
                        ? "' is not available on this CPU/build ("
                        : "' is not implemented (") +
                   b->description + "); falling back to scalar";
      }
      return kScalarBackend;
    }
    if (warning != nullptr) {
      *warning = std::string("unknown kernel backend '") + requested +
                 "' (known: " + known_names() + "); falling back to scalar";
    }
    return kScalarBackend;
  }
  for (const KernelBackend* b : kRegistry) {
    if (b->usable()) return *b;
  }
  return kScalarBackend;  // unreachable: scalar is always usable
}

const KernelBackend& active_backend() {
  const KernelBackend* cached = g_active.load(std::memory_order_acquire);
  if (cached != nullptr) return *cached;
  std::string warning;
  const KernelBackend& chosen =
      resolve_backend(std::getenv("ZSS_KERNEL_BACKEND"), &warning);
  if (!warning.empty()) std::fprintf(stderr, "zss: %s\n", warning.c_str());
  g_active.store(&chosen, std::memory_order_release);
  return chosen;
}

void set_backend_for_testing(const KernelBackend* backend) {
  g_active.store(backend, std::memory_order_release);
}

}  // namespace zss::num::simd
