// Boolean circuit representation and builder.
//
// Circuits use only XOR / AND / NOT so that free-XOR + half-gates garbling
// applies: XOR and NOT cost nothing, each AND costs two 128-bit ciphertexts
// in the garbled table.  The builder provides the arithmetic blocks the
// Primer protocols need — ripple adders, comparators, multiplexers,
// multipliers, dividers, and the modular-reduction adder the paper describes
// ("a modular operation circuit is implemented by an adder and a
// multiplexer").
//
// Bit buses are little-endian: bus[0] is the least significant bit.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace primer {

enum class GateType : std::uint8_t { kXor, kAnd, kNot };

struct Gate {
  GateType type;
  std::int32_t a = -1;
  std::int32_t b = -1;  // unused for NOT
  std::int32_t out = -1;
};

// One dependency level of a circuit.  Every AND gate in a level depends
// only on wires produced by strictly earlier levels, so a level's AND
// gates can be garbled/evaluated in any order — batched through the AES
// pipeline and fanned across the thread pool.  Free gates (XOR/NOT) at a
// level may consume that level's AND outputs and each other, so they stay
// in original emission order (which is topological).
struct CircuitLevel {
  std::vector<std::uint32_t> and_gates;   // gate indices, emission order
  std::vector<std::uint32_t> free_gates;  // XOR/NOT gate indices, emission order
  // The AND gates flattened to (a, b, out, ordinal) quads in the same
  // order: one contiguous 16-byte record per gate for the garble/eval
  // kernels, replacing two dependent indirect loads (gate index -> Gate
  // struct, gate index -> ordinal) with one streaming read.  a/b/out are
  // byte offsets into the label array (wire index * sizeof(Label));
  // ordinal is the gate's raw serial AND ordinal.
  std::vector<std::uint32_t> and_quads;
  // The free gates flattened to (a, b, out) label byte-offset triples in
  // the same order, for the branchless hot loop `w[out] = w[a] ^ w[b]`.
  // NOT gates are encoded as XOR against the reserved delta wire (index
  // num_wires), which the garbler seeds with R and the evaluator with
  // zero — the same label algebra as the explicit kNot cases, without the
  // per-gate Gate-struct load and type branch.
  std::vector<std::uint32_t> free_triples;
  // Independence waves over free_triples: end offsets (in u32 entries,
  // multiples of 3) of maximal prefixes in which no triple reads another's
  // output.  Triples within a wave can execute in any order — the sweep
  // hoists all of a group's loads above its stores, which the plain
  // emission order forbids (consecutive triples may chain, e.g. the sum
  // bits of a ripple adder XOR through each other).  Waves execute in
  // order; the last entry equals free_triples.size().
  std::vector<std::uint32_t> free_wave_ends;
};

struct CircuitLayers {
  std::vector<CircuitLevel> levels;
  // Serial AND ordinal of every gate (0 for XOR/NOT): position of the gate
  // among AND gates in emission order.  This fixes each AND gate's tweak
  // pair (2*ordinal+1, 2*ordinal+2) and table-row offset 2*ordinal, so any
  // execution order yields bit-identical tables and labels.
  std::vector<std::uint32_t> and_ordinal;
  // After finishing level L, every AND gate with ordinal < watermark[L]
  // has final table rows: the contiguous prefix boundary the streamed
  // table transfer ships as levels complete.
  std::vector<std::uint32_t> watermark;
  std::size_t and_count = 0;
  std::size_t max_level_ands = 0;  // widest level (available parallelism)
};

struct Circuit {
  std::int32_t num_wires = 0;
  std::int32_t num_inputs = 0;  // wires [0, num_inputs) are circuit inputs
  std::vector<Gate> gates;
  std::vector<std::int32_t> outputs;

  std::size_t and_count() const {
    std::size_t c = 0;
    for (const auto& g : gates) c += (g.type == GateType::kAnd);
    return c;
  }

  // Topological AND-depth layering, computed once per circuit and shared
  // by copies.  Not thread-safe on first call: compute before handing the
  // same Circuit object to concurrent users (share_layered() does; garble
  // and eval call it up front, outside their parallel regions).
  const CircuitLayers& layers() const;

 private:
  mutable std::shared_ptr<const CircuitLayers> layers_;
};

// Layers `c` and publishes it as an immutable shared circuit.  Its
// layers() is already computed, so any number of threads may garble and
// evaluate it at once.
std::shared_ptr<const Circuit> share_layered(Circuit c);

// Plain (non-garbled) evaluation — the reference semantics every garbling
// test checks against.
std::vector<bool> eval_circuit(const Circuit& c,
                               const std::vector<bool>& inputs);

using Bus = std::vector<std::int32_t>;

class CircuitBuilder {
 public:
  CircuitBuilder();

  // --- wires ---------------------------------------------------------------
  std::int32_t add_input();
  Bus add_input_bus(std::size_t width);
  std::int32_t zero();
  std::int32_t one();
  Bus constant_bus(std::uint64_t value, std::size_t width);

  // --- gates (with constant folding) ----------------------------------------
  std::int32_t xor_gate(std::int32_t a, std::int32_t b);
  std::int32_t and_gate(std::int32_t a, std::int32_t b);
  std::int32_t not_gate(std::int32_t a);
  std::int32_t or_gate(std::int32_t a, std::int32_t b);
  std::int32_t mux_bit(std::int32_t sel, std::int32_t t, std::int32_t f);

  // --- arithmetic ------------------------------------------------------------
  // r = a + b (widths must match); carry_out optionally written.
  Bus add(const Bus& a, const Bus& b, std::int32_t* carry_out = nullptr);
  // r = a - b; borrow_out = 1 iff a < b (unsigned).
  Bus sub(const Bus& a, const Bus& b, std::int32_t* borrow_out = nullptr);
  Bus negate(const Bus& a);  // two's complement
  Bus add_const(const Bus& a, std::uint64_t c, std::int32_t* carry_out = nullptr);
  Bus sub_const(const Bus& a, std::uint64_t c, std::int32_t* borrow_out = nullptr);

  // Unsigned comparisons.
  std::int32_t lt(const Bus& a, const Bus& b);   // a < b
  std::int32_t ge(const Bus& a, const Bus& b);   // a >= b
  std::int32_t eq(const Bus& a, const Bus& b);
  std::int32_t ge_const(const Bus& a, std::uint64_t c);

  // sel ? t : f, element-wise.
  Bus mux(std::int32_t sel, const Bus& t, const Bus& f);

  // Schoolbook multiply, truncated to out_width bits.
  Bus mul(const Bus& a, const Bus& b, std::size_t out_width);

  // Restoring unsigned division: quotient of a / b, width of a.  A caller
  // that knows the quotient is below 2^quotient_bits passes it, and only
  // that many steps run.
  Bus div(const Bus& a, const Bus& b,
          std::size_t quotient_bits = static_cast<std::size_t>(-1));

  // Width manipulation (free).
  Bus zero_extend(const Bus& a, std::size_t width);
  Bus sign_extend(const Bus& a, std::size_t width);
  Bus truncate_bus(const Bus& a, std::size_t width);
  // Arithmetic shift right by constant (fixed-point truncation) — free.
  Bus asr(const Bus& a, std::size_t shift);

  // --- modular arithmetic (shares live in Z_p, p < 2^w) -----------------------
  // (a + b) mod p, both inputs already reduced.
  Bus add_mod(const Bus& a, const Bus& b, std::uint64_t p);
  // (a - b) mod p.
  Bus sub_mod(const Bus& a, const Bus& b, std::uint64_t p);

  // --- finalize ---------------------------------------------------------------
  void set_outputs(const Bus& bus);
  void append_outputs(const Bus& bus);
  Circuit build();

  std::size_t and_count() const { return and_count_; }

 private:
  std::int32_t emit(GateType t, std::int32_t a, std::int32_t b);

  Circuit circuit_;
  std::int32_t zero_wire_ = -1;
  std::int32_t one_wire_ = -1;
  std::size_t and_count_ = 0;
};

}  // namespace primer
