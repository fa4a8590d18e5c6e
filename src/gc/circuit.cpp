#include "gc/circuit.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace primer {

// Byte stride of one wire label in the flattened gate records; mirrors
// sizeof(Label) without pulling garble.h into the circuit layer.  16 bytes
// caps the offset-addressable circuit at 2^28 wires, far above any circuit
// the builder emits.
constexpr std::uint32_t sizeof_label = 16;

const CircuitLayers& Circuit::layers() const {
  if (layers_) return *layers_;
  auto lay = std::make_shared<CircuitLayers>();
  // AND-depth of every wire: inputs at 0, XOR/NOT pass the max of their
  // inputs through, each AND adds one.  Gates are emitted in topological
  // order, so a single forward pass suffices.
  std::vector<std::uint32_t> depth(static_cast<std::size_t>(num_wires), 0);
  lay->and_ordinal.assign(gates.size(), 0);
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    std::uint32_t d = depth[static_cast<std::size_t>(g.a)];
    if (g.type != GateType::kNot) {
      d = std::max(d, depth[static_cast<std::size_t>(g.b)]);
    }
    if (g.type == GateType::kAnd) {
      ++d;
      lay->and_ordinal[i] = static_cast<std::uint32_t>(lay->and_count++);
    }
    depth[static_cast<std::size_t>(g.out)] = d;
    if (lay->levels.size() <= d) lay->levels.resize(d + 1);
    auto& level = lay->levels[d];
    // Wire references in the flattened forms are byte offsets into the
    // Label array (index * sizeof(Label)): the kernels then address labels
    // with one load and a base register, no per-access shift/extend.
    const auto off = [](std::int32_t wire) {
      return static_cast<std::uint32_t>(wire) * sizeof_label;
    };
    if (g.type == GateType::kAnd) {
      level.and_gates.push_back(static_cast<std::uint32_t>(i));
      level.and_quads.push_back(off(g.a));
      level.and_quads.push_back(off(g.b));
      level.and_quads.push_back(off(g.out));
      level.and_quads.push_back(lay->and_ordinal[i]);
    } else {
      level.free_gates.push_back(static_cast<std::uint32_t>(i));
      level.free_triples.push_back(off(g.a));
      level.free_triples.push_back(g.type == GateType::kXor ? off(g.b)
                                                            : off(num_wires));
      level.free_triples.push_back(off(g.out));
    }
  }
  // Partition each level's free triples into independence waves: a greedy
  // forward pass cuts a new wave whenever a triple reads an output written
  // earlier in the current wave.  Outputs are unique (the builder never
  // reuses an out wire) and a wire is always written before it is read, so
  // read-after-write within a wave is the only hazard.  XOR trees make
  // waves long in practice; adder sum chains are what cuts them.
  {
    std::unordered_set<std::uint32_t> outs;
    for (auto& level : lay->levels) {
      const auto& t = level.free_triples;
      outs.clear();
      for (std::size_t i = 0; i < t.size(); i += 3) {
        if (outs.count(t[i]) || outs.count(t[i + 1])) {
          level.free_wave_ends.push_back(static_cast<std::uint32_t>(i));
          outs.clear();
        }
        outs.insert(t[i + 2]);
      }
      if (!t.empty()) {
        level.free_wave_ends.push_back(static_cast<std::uint32_t>(t.size()));
      }
    }
  }
  // Streamed-transfer prefix watermarks: after level L, every AND ordinal
  // below the minimum ordinal of any later level is final.
  lay->watermark.assign(lay->levels.size(), 0);
  std::uint32_t frontier = static_cast<std::uint32_t>(lay->and_count);
  for (std::size_t l = lay->levels.size(); l-- > 0;) {
    lay->watermark[l] = frontier;
    for (const auto gi : lay->levels[l].and_gates) {
      frontier = std::min(frontier, lay->and_ordinal[gi]);
    }
    lay->max_level_ands =
        std::max(lay->max_level_ands, lay->levels[l].and_gates.size());
  }
  layers_ = std::move(lay);
  return *layers_;
}

std::shared_ptr<const Circuit> share_layered(Circuit c) {
  c.layers();
  return std::make_shared<const Circuit>(std::move(c));
}

std::vector<bool> eval_circuit(const Circuit& c,
                               const std::vector<bool>& inputs) {
  if (static_cast<std::int32_t>(inputs.size()) != c.num_inputs) {
    throw std::invalid_argument("eval_circuit: wrong input count");
  }
  std::vector<bool> w(static_cast<std::size_t>(c.num_wires), false);
  for (std::size_t i = 0; i < inputs.size(); ++i) w[i] = inputs[i];
  for (const auto& g : c.gates) {
    switch (g.type) {
      case GateType::kXor:
        w[g.out] = w[g.a] ^ w[g.b];
        break;
      case GateType::kAnd:
        w[g.out] = w[g.a] && w[g.b];
        break;
      case GateType::kNot:
        w[g.out] = !w[g.a];
        break;
    }
  }
  std::vector<bool> out(c.outputs.size());
  for (std::size_t i = 0; i < c.outputs.size(); ++i) out[i] = w[c.outputs[i]];
  return out;
}

CircuitBuilder::CircuitBuilder() = default;

std::int32_t CircuitBuilder::add_input() {
  if (!circuit_.gates.empty()) {
    throw std::logic_error("add_input: inputs must precede gates");
  }
  const std::int32_t w = circuit_.num_wires++;
  circuit_.num_inputs = circuit_.num_wires;
  return w;
}

Bus CircuitBuilder::add_input_bus(std::size_t width) {
  Bus bus(width);
  for (auto& w : bus) w = add_input();
  return bus;
}

std::int32_t CircuitBuilder::emit(GateType t, std::int32_t a, std::int32_t b) {
  const std::int32_t out = circuit_.num_wires++;
  circuit_.gates.push_back(Gate{t, a, b, out});
  if (t == GateType::kAnd) ++and_count_;
  return out;
}

std::int32_t CircuitBuilder::zero() {
  if (zero_wire_ < 0) {
    if (circuit_.num_inputs == 0) {
      throw std::logic_error("zero: circuit needs at least one input wire");
    }
    zero_wire_ = emit(GateType::kXor, 0, 0);  // w0 ^ w0 == 0, free gate
  }
  return zero_wire_;
}

std::int32_t CircuitBuilder::one() {
  if (one_wire_ < 0) one_wire_ = emit(GateType::kNot, zero(), -1);
  return one_wire_;
}

Bus CircuitBuilder::constant_bus(std::uint64_t value, std::size_t width) {
  Bus bus(width);
  for (std::size_t i = 0; i < width; ++i) {
    bus[i] = ((value >> i) & 1) ? one() : zero();
  }
  return bus;
}

std::int32_t CircuitBuilder::xor_gate(std::int32_t a, std::int32_t b) {
  if (a == zero_wire_ && zero_wire_ >= 0) return b;
  if (b == zero_wire_ && zero_wire_ >= 0) return a;
  if (a == one_wire_ && one_wire_ >= 0) return not_gate(b);
  if (b == one_wire_ && one_wire_ >= 0) return not_gate(a);
  if (a == b) return zero();
  return emit(GateType::kXor, a, b);
}

std::int32_t CircuitBuilder::and_gate(std::int32_t a, std::int32_t b) {
  if ((a == zero_wire_ || b == zero_wire_) && zero_wire_ >= 0) return zero();
  if (a == one_wire_ && one_wire_ >= 0) return b;
  if (b == one_wire_ && one_wire_ >= 0) return a;
  if (a == b) return a;
  return emit(GateType::kAnd, a, b);
}

std::int32_t CircuitBuilder::not_gate(std::int32_t a) {
  if (a == zero_wire_ && zero_wire_ >= 0) return one();
  if (a == one_wire_ && one_wire_ >= 0) return zero();
  return emit(GateType::kNot, a, -1);
}

std::int32_t CircuitBuilder::or_gate(std::int32_t a, std::int32_t b) {
  // a | b = (a ^ b) ^ (a & b): one AND.
  return xor_gate(xor_gate(a, b), and_gate(a, b));
}

std::int32_t CircuitBuilder::mux_bit(std::int32_t sel, std::int32_t t,
                                     std::int32_t f) {
  // f ^ sel*(t ^ f): one AND.
  return xor_gate(f, and_gate(sel, xor_gate(t, f)));
}

Bus CircuitBuilder::add(const Bus& a, const Bus& b, std::int32_t* carry_out) {
  if (a.size() != b.size()) throw std::invalid_argument("add: width mismatch");
  Bus out(a.size());
  std::int32_t carry = zero();
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Full adder with one AND: s = a^b^c, c' = ((a^c)&(b^c))^c.
    const std::int32_t axc = xor_gate(a[i], carry);
    const std::int32_t bxc = xor_gate(b[i], carry);
    out[i] = xor_gate(axc, b[i]);
    carry = xor_gate(and_gate(axc, bxc), carry);
  }
  if (carry_out != nullptr) *carry_out = carry;
  return out;
}

Bus CircuitBuilder::sub(const Bus& a, const Bus& b, std::int32_t* borrow_out) {
  if (a.size() != b.size()) throw std::invalid_argument("sub: width mismatch");
  // a - b = a + ~b + 1; borrow = NOT carry_out.
  Bus nb(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) nb[i] = not_gate(b[i]);
  Bus out(a.size());
  std::int32_t carry = one();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::int32_t axc = xor_gate(a[i], carry);
    const std::int32_t bxc = xor_gate(nb[i], carry);
    out[i] = xor_gate(axc, nb[i]);
    carry = xor_gate(and_gate(axc, bxc), carry);
  }
  if (borrow_out != nullptr) *borrow_out = not_gate(carry);
  return out;
}

Bus CircuitBuilder::negate(const Bus& a) {
  Bus z(a.size(), zero());
  return sub(z, a);
}

Bus CircuitBuilder::add_const(const Bus& a, std::uint64_t c,
                              std::int32_t* carry_out) {
  return add(a, constant_bus(c, a.size()), carry_out);
}

Bus CircuitBuilder::sub_const(const Bus& a, std::uint64_t c,
                              std::int32_t* borrow_out) {
  return sub(a, constant_bus(c, a.size()), borrow_out);
}

std::int32_t CircuitBuilder::lt(const Bus& a, const Bus& b) {
  std::int32_t borrow = 0;
  sub(a, b, &borrow);
  return borrow;
}

std::int32_t CircuitBuilder::ge(const Bus& a, const Bus& b) {
  return not_gate(lt(a, b));
}

std::int32_t CircuitBuilder::eq(const Bus& a, const Bus& b) {
  if (a.size() != b.size()) throw std::invalid_argument("eq: width mismatch");
  std::int32_t acc = one();
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc = and_gate(acc, not_gate(xor_gate(a[i], b[i])));
  }
  return acc;
}

std::int32_t CircuitBuilder::ge_const(const Bus& a, std::uint64_t c) {
  std::int32_t borrow = 0;
  sub_const(a, c, &borrow);
  return not_gate(borrow);
}

Bus CircuitBuilder::mux(std::int32_t sel, const Bus& t, const Bus& f) {
  if (t.size() != f.size()) throw std::invalid_argument("mux: width mismatch");
  Bus out(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) out[i] = mux_bit(sel, t[i], f[i]);
  return out;
}

Bus CircuitBuilder::mul(const Bus& a, const Bus& b, std::size_t out_width) {
  Bus acc = constant_bus(0, out_width);
  for (std::size_t i = 0; i < b.size() && i < out_width; ++i) {
    // Partial product: (a << i) & b[i], truncated to out_width.
    Bus pp = constant_bus(0, out_width);
    for (std::size_t j = 0; j + i < out_width && j < a.size(); ++j) {
      pp[j + i] = and_gate(a[j], b[i]);
    }
    acc = add(acc, pp);
  }
  return acc;
}

Bus CircuitBuilder::div(const Bus& a, const Bus& b,
                        std::size_t quotient_bits) {
  // Restoring division, MSB-first.  rem accumulates one dividend bit per
  // step; quotient bit = rem >= b.  Quotient bits from quotient_bits up are
  // zero, so rem starts as a >> quotient_bits, which is then below b.
  const std::size_t steps = std::min(a.size(), quotient_bits);
  Bus rem = zero_extend(Bus(a.begin() + static_cast<long>(steps), a.end()),
                        b.size() + 1);
  Bus bext = zero_extend(b, b.size() + 1);
  Bus q(a.size(), zero());
  for (std::size_t bit = steps; bit-- > 0;) {
    // rem = (rem << 1) | a[bit]
    Bus shifted(rem.size());
    shifted[0] = a[bit];
    for (std::size_t i = 1; i < rem.size(); ++i) shifted[i] = rem[i - 1];
    std::int32_t borrow = 0;
    Bus diff = sub(shifted, bext, &borrow);
    q[bit] = not_gate(borrow);
    if (bit > 0) rem = mux(q[bit], diff, shifted);
  }
  return q;
}

Bus CircuitBuilder::zero_extend(const Bus& a, std::size_t width) {
  Bus out = a;
  while (out.size() < width) out.push_back(zero());
  out.resize(width);
  return out;
}

Bus CircuitBuilder::sign_extend(const Bus& a, std::size_t width) {
  Bus out = a;
  const std::int32_t sign = a.empty() ? zero() : a.back();
  while (out.size() < width) out.push_back(sign);
  out.resize(width);
  return out;
}

Bus CircuitBuilder::truncate_bus(const Bus& a, std::size_t width) {
  Bus out = a;
  out.resize(width);
  return out;
}

Bus CircuitBuilder::asr(const Bus& a, std::size_t shift) {
  Bus out(a.size());
  const std::int32_t sign = a.empty() ? zero() : a.back();
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = (i + shift < a.size()) ? a[i + shift] : sign;
  }
  return out;
}

Bus CircuitBuilder::add_mod(const Bus& a, const Bus& b, std::uint64_t p) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("add_mod: width mismatch");
  }
  // Work one bit wider so a+b (< 2p < 2^{w+1}) never wraps.
  const std::size_t w = a.size() + 1;
  Bus s = add(zero_extend(a, w), zero_extend(b, w));
  std::int32_t borrow = 0;
  Bus d = sub_const(s, p, &borrow);
  // borrow == 1 means s < p: keep s, else keep s - p.
  return truncate_bus(mux(borrow, s, d), a.size());
}

Bus CircuitBuilder::sub_mod(const Bus& a, const Bus& b, std::uint64_t p) {
  // a - b borrows exactly when it wraps below zero; p then comes back as
  // p's bits masked by the borrow, free of gates.
  std::int32_t borrow = 0;
  const Bus d = sub(a, b, &borrow);
  Bus back(a.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    back[i] = ((p >> i) & 1) ? borrow : zero();
  }
  return add(d, back);
}

void CircuitBuilder::set_outputs(const Bus& bus) {
  circuit_.outputs.assign(bus.begin(), bus.end());
}

void CircuitBuilder::append_outputs(const Bus& bus) {
  circuit_.outputs.insert(circuit_.outputs.end(), bus.begin(), bus.end());
}

Circuit CircuitBuilder::build() { return circuit_; }

}  // namespace primer
