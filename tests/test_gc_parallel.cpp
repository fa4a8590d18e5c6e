// Thread-count invariance of the GC layer: garbled tables, wire labels,
// and protocol outputs must be bit-identical under any PRIMER_THREADS, for
// every fixed nonlinear-layer circuit and both table-transfer modes.  The
// garbler keys tweaks and table rows to each AND gate's serial ordinal and
// samples all randomness on the calling thread, so parallel execution is a
// pure reordering — these tests pin that contract.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/parallel.h"
#include "gc/fixed_circuit_suite.h"
#include "gc/garble.h"
#include "gc/protocol.h"

namespace primer {
namespace {

// Restores the previous global thread count when the test scope exits.
class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t n) : prev_(num_threads()) {
    set_num_threads(n);
  }
  ~ThreadGuard() { set_num_threads(prev_); }

 private:
  std::size_t prev_;
};

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

struct GarbleSnapshot {
  GarbledCircuit gc;
  std::vector<Label> eval_out;
};

GarbleSnapshot snapshot(const Circuit& circ) {
  Rng rng(2718);
  Garbler g(rng);
  GarbleSnapshot s;
  s.gc = g.garble(circ);
  Rng in_rng(31415);
  std::vector<Label> active(static_cast<std::size_t>(circ.num_inputs));
  for (std::size_t i = 0; i < active.size(); ++i) {
    active[i] = Garbler::active_input(s.gc, i, in_rng.next() & 1);
  }
  s.eval_out = GcEvaluator::eval(circ, s.gc.table, active);
  return s;
}

void expect_identical(const GarbleSnapshot& a, const GarbleSnapshot& b) {
  ASSERT_TRUE(a.gc.delta == b.gc.delta);
  ASSERT_EQ(a.gc.table.rows.size(), b.gc.table.rows.size());
  for (std::size_t i = 0; i < a.gc.table.rows.size(); ++i) {
    ASSERT_TRUE(a.gc.table.rows[i] == b.gc.table.rows[i]) << "row " << i;
  }
  ASSERT_EQ(a.gc.input_labels0.size(), b.gc.input_labels0.size());
  for (std::size_t i = 0; i < a.gc.input_labels0.size(); ++i) {
    ASSERT_TRUE(a.gc.input_labels0[i] == b.gc.input_labels0[i]);
  }
  ASSERT_EQ(a.gc.output_labels0.size(), b.gc.output_labels0.size());
  for (std::size_t i = 0; i < a.gc.output_labels0.size(); ++i) {
    ASSERT_TRUE(a.gc.output_labels0[i] == b.gc.output_labels0[i]);
  }
  ASSERT_EQ(a.eval_out.size(), b.eval_out.size());
  for (std::size_t i = 0; i < a.eval_out.size(); ++i) {
    ASSERT_TRUE(a.eval_out[i] == b.eval_out[i]) << "output " << i;
  }
}

TEST(GcParallel, TablesLabelsOutputsInvariantAcrossThreadCounts) {
  for (const auto& [name, circ] : fixed_circuit_suite()) {
    SCOPED_TRACE(name);
    circ.layers();  // warm the shared layering before the sweep
    GarbleSnapshot serial;
    {
      ThreadGuard guard(1);
      serial = snapshot(circ);
    }
    // Serial path must also match the seed's reference implementation.
    Rng ref_rng(2718);
    const GarbledCircuit ref = garble_reference(circ, ref_rng);
    ASSERT_EQ(serial.gc.table.rows.size(), ref.table.rows.size());
    for (std::size_t i = 0; i < ref.table.rows.size(); ++i) {
      ASSERT_TRUE(serial.gc.table.rows[i] == ref.table.rows[i]) << "row " << i;
    }

    for (const std::size_t n : kThreadCounts) {
      SCOPED_TRACE(n);
      ThreadGuard guard(n);
      expect_identical(serial, snapshot(circ));
    }
  }
}

TEST(GcParallel, SessionOutputsInvariantAcrossThreadCountsAndTransfers) {
  for (const auto& [name, circ] : fixed_circuit_suite(4)) {
    SCOPED_TRACE(name);
    Rng in_rng(8128);
    std::vector<bool> garbler_bits, evaluator_bits;
    // The suite circuits take [garbler shares | evaluator shares + masks];
    // split inputs so each party holds a plausible slice.
    const std::size_t ng = static_cast<std::size_t>(circ.num_inputs) / 3;
    for (std::size_t i = 0; i < static_cast<std::size_t>(circ.num_inputs);
         ++i) {
      (i < ng ? garbler_bits : evaluator_bits).push_back(in_rng.next() & 1);
    }

    auto run = [&](std::size_t threads, TableTransfer transfer) {
      ThreadGuard guard(threads);
      Channel ch;
      FramedChannel fch(ch, FaultSpec{});
      Rng rng(5555);
      GcSession session(fch, rng);
      session.set_table_transfer(transfer);
      session.set_stream_chunk_rows(64);
      session.offline(circ, RevealTo::kBoth);
      return session.online(garbler_bits, evaluator_bits);
    };

    const auto expect = run(1, TableTransfer::kMonolithic);
    for (const std::size_t n : kThreadCounts) {
      SCOPED_TRACE(n);
      EXPECT_EQ(run(n, TableTransfer::kMonolithic), expect);
      EXPECT_EQ(run(n, TableTransfer::kStreamed), expect);
    }
  }
}

}  // namespace
}  // namespace primer
