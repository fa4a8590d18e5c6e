// Parallel execution layer: a fixed-size thread pool behind simple
// parallel_for / parallel_for_2d entry points.
//
// The Primer hot paths are embarrassingly parallel over independent units —
// RNS limbs in NTT/limb arithmetic, key-switch digits, result ciphertexts of
// a packed matmul — and every unit is pure modular arithmetic on disjoint
// data.  The global executor therefore guarantees *bit-identical* results to
// the serial path: loop bodies may be interleaved in any order but never
// share mutable state, and all Rng sampling stays on the calling thread.
//
// Configuration: the pool size defaults to the PRIMER_THREADS environment
// variable (unset or empty -> 1, i.e. serial; 0 -> hardware concurrency,
// matching set_num_threads(0); values above 256 clamp to 256) and can be
// changed at runtime with set_num_threads().  A malformed value ("abc",
// "4x", "-1") makes the first use of the executor throw
// std::invalid_argument (common/env.h).  With one thread every entry point
// degenerates to a plain loop on the calling thread — no pool, no locks.
//
// Nested calls (a loop body that itself reaches a parallel_for, e.g. a
// packed-matmul worker calling Evaluator::rotate which parallelizes over
// key-switch digits) execute inline on the current thread, so nesting is
// safe and never deadlocks.  The first exception thrown by any loop body is
// captured and rethrown on the calling thread.
#pragma once

#include <cstddef>
#include <functional>

namespace primer {

// Number of threads the global executor is configured to use (>= 1).
std::size_t num_threads();

// Reconfigures the global executor.  n == 0 selects the hardware
// concurrency; n == 1 disables the pool (serial execution).  Must not be
// called from inside a parallel_for body.
void set_num_threads(std::size_t n);

// Hardware concurrency hint (>= 1 even when unknown).
std::size_t hardware_threads();

// Total work (in element-op units, see below) under which dispatching to
// the pool costs more than it saves: a pool wakeup is on the order of tens
// of microseconds, i.e. ~100k single-word modular operations.
inline constexpr std::size_t kSerialGrain = std::size_t{1} << 17;

// Invokes body(i) for every i in [begin, end), partitioned across the
// global executor.  Iterations must touch disjoint mutable state.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

// Variant with a cost hint: work_per_item approximates one iteration's cost
// in element ops (e.g. the polynomial degree for an elementwise limb loop).
// When the loop's total work is below kSerialGrain it runs serially on the
// calling thread — a pool wakeup would cost more than it saves.  Without a
// hint, loops are assumed heavy enough to dispatch.
void parallel_for(std::size_t begin, std::size_t end,
                  std::size_t work_per_item,
                  const std::function<void(std::size_t)>& body);

// Chunked variant: invokes body(lo, hi) on contiguous subranges that
// exactly cover [begin, end).  Lets the body hoist per-chunk scratch
// buffers out of the element loop.
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>&
                             body);

// Invokes body(i, j) for every (i, j) in [0, rows) x [0, cols).
void parallel_for_2d(std::size_t rows, std::size_t cols,
                     const std::function<void(std::size_t, std::size_t)>&
                         body);

}  // namespace primer
