#pragma once

/// \file exec.hpp
/// apr::exec -- the unified execution layer. Every hot loop in the code
/// (LBM collide/stream, grid coupling, IBM interpolate/spread, membrane
/// force assembly, contact search) is expressed against this small engine
/// instead of raw OpenMP pragmas, so scheduling policy -- worker count,
/// grain size, serial fallback -- lives in exactly one place.
///
/// Building blocks:
///  - parallel_for(n, body[, grain]):        body(i) per element
///  - parallel_for_chunks(n, body[, grain]): body(begin, end, worker) per
///    contiguous chunk; `worker` < num_workers() indexes per-worker scratch
///  - parallel_reduce(n, id, chunk, combine[, grain]): chunk(begin, end)
///    partials combined in ascending chunk order, so a fixed grain yields
///    results independent of the worker count; chunks go to whichever
///    worker is free
///  - WorkerLocal<T>: per-worker scratch/accumulator slots merged in a
///    deterministic (slot-index) order by the caller
///
/// Without OpenMP every loop degrades to a serial in-order sweep with
/// worker id 0 -- same results, no extra dependencies. Chunk boundaries
/// depend only on (n, grain, num_workers()), never on runtime load.
/// parallel_for_chunks assigns chunks to workers statically, so
/// worker-indexed scratch sees the same chunks on every run;
/// parallel_reduce hands them out dynamically, which cannot change its
/// result (the chunk functor sees no worker id and each partial has its
/// own slot). Either way every run with the same worker count is
/// bit-for-bit reproducible.

#include <algorithm>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "src/obs/trace.hpp"

namespace apr::exec {

/// True when the library was built with OpenMP; otherwise every loop in
/// this header runs its serial fallback.
constexpr bool threaded() {
#ifdef _OPENMP
  return true;
#else
  return false;
#endif
}

/// Number of workers parallel loops may use (>= 1; 1 in serial builds).
int num_workers();

/// Set the worker count for subsequent loops (clamped to >= 1). A no-op
/// in serial builds. Call only between loops, never from inside one.
void set_num_workers(int n);

namespace detail {

/// Chunk size for a loop of `n` items; `grain` = 0 picks ~4 chunks per
/// worker. Always >= 1.
std::size_t resolve_grain(std::size_t n, std::size_t grain);

/// Number of chunks the loop splits into (0 for an empty loop).
std::size_t chunk_count(std::size_t n, std::size_t grain);

}  // namespace detail

/// Run body(begin, end, worker) over contiguous chunks of [0, n).
/// `worker` is in [0, num_workers()) and is stable for the duration of
/// one chunk -- use it to index WorkerLocal scratch.
template <class Body>
void parallel_for_chunks(std::size_t n, Body&& body, std::size_t grain = 0) {
  if (n == 0) return;
  // One relaxed atomic load when tracing is off (SpanScope stays unarmed).
  OBS_SPAN("exec", "parallel_for_chunks");
  const std::size_t g = detail::resolve_grain(n, grain);
  const std::size_t chunks = (n + g - 1) / g;
#ifdef _OPENMP
  if (num_workers() > 1 && chunks > 1) {
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(chunks); ++c) {
      const std::size_t b = static_cast<std::size_t>(c) * g;
      body(b, std::min(n, b + g), omp_get_thread_num());
    }
    return;
  }
#endif
  for (std::size_t c = 0; c < chunks; ++c) {
    body(c * g, std::min(n, (c + 1) * g), 0);
  }
}

/// Run body(i) for every i in [0, n), statically chunked over the workers.
template <class Body>
void parallel_for(std::size_t n, Body&& body, std::size_t grain = 0) {
  parallel_for_chunks(
      n,
      [&](std::size_t b, std::size_t e, int) {
        for (std::size_t i = b; i < e; ++i) body(i);
      },
      grain);
}

/// Deterministic reduction: chunk(begin, end) -> T over each chunk of
/// [0, n), partials combined with combine(acc, partial) in ascending
/// chunk order. With an explicit grain the result is independent of the
/// worker count (chunk boundaries and combine order are fixed).
///
/// A free worker takes the next chunk (dynamic schedule). Chunk costs can
/// differ by far more than the static split evens out -- the LBM sweep
/// over a sparse tree's tiles is one such loop -- and with a fixed
/// assignment the step waits for the most loaded worker, and for
/// whichever core that worker is sharing with other load.
template <class T, class Chunk, class Combine>
T parallel_reduce(std::size_t n, T identity, Chunk&& chunk, Combine&& combine,
                  std::size_t grain = 0) {
  if (n == 0) return identity;
  OBS_SPAN("exec", "parallel_reduce");
  const std::size_t g = detail::resolve_grain(n, grain);
  const std::size_t chunks = (n + g - 1) / g;
  std::vector<T> partial(chunks, identity);
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) if (num_workers() > 1 && chunks > 1)
#endif
  for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(chunks); ++c) {
    const std::size_t b = static_cast<std::size_t>(c) * g;
    partial[static_cast<std::size_t>(c)] = chunk(b, std::min(n, b + g));
  }
  T acc = std::move(identity);
  for (std::size_t c = 0; c < chunks; ++c) {
    acc = combine(std::move(acc), std::move(partial[c]));
  }
  return acc;
}

/// Per-worker scratch/accumulator pool. prepare() (from serial context)
/// grows the pool to the current worker count; loop bodies index it with
/// the worker id handed to them by parallel_for_chunks. Slots live in a
/// deque so growth never moves existing slots, letting buffers warm up
/// once and persist across calls. Merge slots in index order for
/// deterministic results.
///
/// Pitfall: when the pool is a `static thread_local`, do not name it
/// inside a loop body -- thread_locals are never captured, so each worker
/// would resolve the name to its own, unrelated instance. Take a pointer
/// in the enclosing scope and capture that instead.
template <class T>
class WorkerLocal {
 public:
  WorkerLocal() { prepare(); }

  /// Grow to num_workers() slots. Call between loops, never inside one.
  void prepare() {
    const auto want = static_cast<std::size_t>(num_workers());
    while (slots_.size() < want) slots_.emplace_back();
  }

  std::size_t size() const { return slots_.size(); }
  T& operator[](std::size_t worker) { return slots_[worker]; }
  const T& operator[](std::size_t worker) const { return slots_[worker]; }

  auto begin() { return slots_.begin(); }
  auto end() { return slots_.end(); }

 private:
  std::deque<T> slots_;
};

}  // namespace apr::exec
