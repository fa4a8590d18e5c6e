#include "gc/protocol.h"

#include <cstring>
#include <stdexcept>
#include <string>

namespace primer {

std::vector<std::uint8_t> pack_bits(const std::vector<bool>& bits) {
  std::vector<std::uint8_t> out((bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) out[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  return out;
}

std::vector<bool> unpack_bits(const std::vector<std::uint8_t>& bytes,
                              std::size_t count) {
  if (bytes.size() != (count + 7) / 8) {
    throw ProtocolError(ProtocolErrorKind::kMalformed,
                        "unpack_bits: payload of " +
                            std::to_string(bytes.size()) +
                            " bytes does not hold exactly " +
                            std::to_string(count) + " bits");
  }
  std::vector<bool> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = (bytes[i / 8] >> (i % 8)) & 1;
  }
  return out;
}

std::vector<bool> value_to_bits(std::uint64_t v, std::size_t width) {
  std::vector<bool> out(width);
  for (std::size_t i = 0; i < width; ++i) out[i] = (v >> i) & 1;
  return out;
}

std::uint64_t bits_to_value(const std::vector<bool>& bits) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) v |= std::uint64_t{1} << i;
  }
  return v;
}

namespace {

std::vector<std::uint8_t> labels_to_bytes(const std::vector<Label>& labels) {
  std::vector<std::uint8_t> out(labels.size() * sizeof(Label));
  std::memcpy(out.data(), labels.data(), out.size());
  return out;
}

// Parses a wire payload into exactly `expected` labels; the frame layer has
// already verified integrity, so a size mismatch here means the sender
// framed the wrong thing — surface it as a malformed-payload error.
std::vector<Label> labels_from_bytes(const std::vector<std::uint8_t>& bytes,
                                     std::size_t expected, const char* what) {
  if (bytes.size() != expected * sizeof(Label)) {
    throw ProtocolError(ProtocolErrorKind::kMalformed,
                        std::string(what) + ": payload of " +
                            std::to_string(bytes.size()) +
                            " bytes does not hold the expected " +
                            std::to_string(expected) + " labels");
  }
  std::vector<Label> out(expected);
  std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

// Streamed-chunk payload: u64 row_begin | u32 row_count | u32 total_rows |
// row_count labels.  total_rows is repeated in every chunk so each one is
// independently validatable against the evaluator's circuit.
constexpr std::size_t kChunkHeaderBytes = 16;

std::vector<std::uint8_t> encode_table_chunk(std::uint64_t row_begin,
                                             std::uint32_t row_count,
                                             std::uint32_t total_rows,
                                             const Label* rows) {
  std::vector<std::uint8_t> out(kChunkHeaderBytes +
                                row_count * sizeof(Label));
  std::memcpy(out.data(), &row_begin, 8);
  std::memcpy(out.data() + 8, &row_count, 4);
  std::memcpy(out.data() + 12, &total_rows, 4);
  std::memcpy(out.data() + kChunkHeaderBytes, rows,
              row_count * sizeof(Label));
  return out;
}

[[noreturn]] void chunk_malformed(const std::string& what) {
  throw ProtocolError(ProtocolErrorKind::kMalformed,
                      "gc table chunk: " + what);
}

}  // namespace

void GcSession::offline(std::shared_ptr<const Circuit> circuit,
                        RevealTo reveal) {
  circuit_ = std::move(circuit);
  reveal_ = reveal;
  // Layering is computed before the timed region starts so garble and eval
  // share one cached copy (and the parallel regions never race on it).
  const CircuitLayers& lay = circuit_->layers();
  const std::size_t total_rows = 2 * lay.and_count;

  Stopwatch timer;
  Garbler garbler(rng_);
  // Ship finalized table prefixes while later levels are still garbling.
  // Watermark spans are coalesced up to stream_chunk_rows_; the final sink
  // call (row_end == total_rows) always flushes.
  std::size_t sent = 0;
  gc_ = garbler.garble(
      *circuit_, [&](const Label* rows, std::size_t, std::size_t row_end) {
        if (row_end != total_rows && row_end - sent < stream_chunk_rows_) {
          return;  // defer: not enough final rows for a chunk yet
        }
        channel_.send(Party::kServer, MessageKind::kGcTableChunk,
                      encode_table_chunk(
                          sent, static_cast<std::uint32_t>(row_end - sent),
                          static_cast<std::uint32_t>(total_rows), rows + sent));
        sent = row_end;
      });
  stats_.garble_seconds += timer.seconds();
  stats_.and_gates += lay.and_count;
  stats_.table_bytes += gc_.table.byte_size();

  // Evaluator side: reassemble the tables off the wire.
  client_table_.rows.assign(total_rows, Label{});
  std::size_t received = 0;
  while (received < total_rows) {
    const auto payload =
        channel_.recv_expect(Party::kClient, MessageKind::kGcTableChunk);
    if (payload.size() < kChunkHeaderBytes) {
      chunk_malformed("payload of " + std::to_string(payload.size()) +
                      " bytes is shorter than the chunk header");
    }
    std::uint64_t row_begin = 0;
    std::uint32_t row_count = 0;
    std::uint32_t chunk_total = 0;
    std::memcpy(&row_begin, payload.data(), 8);
    std::memcpy(&row_count, payload.data() + 8, 4);
    std::memcpy(&chunk_total, payload.data() + 12, 4);
    if (chunk_total != total_rows) {
      chunk_malformed("chunk claims a " + std::to_string(chunk_total) +
                      "-row table but the circuit needs " +
                      std::to_string(total_rows));
    }
    if (row_begin != received) {
      chunk_malformed("chunk starts at row " + std::to_string(row_begin) +
                      " but " + std::to_string(received) +
                      " rows have been received");
    }
    if (row_count == 0 || row_begin + row_count > total_rows) {
      chunk_malformed("chunk of " + std::to_string(row_count) +
                      " rows at row " + std::to_string(row_begin) +
                      " overruns the " + std::to_string(total_rows) +
                      "-row table");
    }
    if (payload.size() != kChunkHeaderBytes + row_count * sizeof(Label)) {
      chunk_malformed("payload of " + std::to_string(payload.size()) +
                      " bytes does not hold " + std::to_string(row_count) +
                      " rows");
    }
    std::memcpy(client_table_.rows.data() + row_begin,
                payload.data() + kChunkHeaderBytes, row_count * sizeof(Label));
    received += row_count;
  }
  if (reveal == RevealTo::kEvaluator || reveal == RevealTo::kBoth) {
    // Decode bits: lsb of each output wire's false label.
    std::vector<bool> decode(gc_.output_labels0.size());
    for (std::size_t i = 0; i < decode.size(); ++i) {
      decode[i] = gc_.output_labels0[i].lsb();
    }
    channel_.send(Party::kServer, MessageKind::kGcDecodeBits,
                  pack_bits(decode));
    client_decode_ = unpack_bits(
        channel_.recv_expect(Party::kClient, MessageKind::kGcDecodeBits),
        gc_.output_labels0.size());
  }
  ot_.setup();  // once per OT; a no-op after the protocol's ot_setup step
  offline_done_ = true;
}

std::vector<bool> GcSession::online(const std::vector<bool>& garbler_bits,
                                    const std::vector<bool>& evaluator_bits) {
  if (!offline_done_) {
    throw std::logic_error("GcSession::online before offline");
  }
  const std::size_t ng = garbler_bits.size();
  const std::size_t ne = evaluator_bits.size();
  if (static_cast<std::int32_t>(ng + ne) != circuit_->num_inputs) {
    throw std::invalid_argument("GcSession::online: input count mismatch");
  }

  // Garbler sends active labels for its own inputs.
  std::vector<Label> active(ng + ne);
  std::vector<Label> garbler_active(ng);
  for (std::size_t i = 0; i < ng; ++i) {
    garbler_active[i] = Garbler::active_input(gc_, i, garbler_bits[i]);
  }
  channel_.send(Party::kServer, MessageKind::kGcGarblerLabels,
                labels_to_bytes(garbler_active));
  {
    const auto received = labels_from_bytes(
        channel_.recv_expect(Party::kClient, MessageKind::kGcGarblerLabels),
        ng, "gc garbler labels");
    for (std::size_t i = 0; i < ng; ++i) active[i] = received[i];
  }

  // Evaluator obtains its labels via (simulated, traffic-accounted) OT.
  std::vector<Label> l0(ne), l1(ne);
  for (std::size_t i = 0; i < ne; ++i) {
    l0[i] = gc_.input_labels0[ng + i];
    l1[i] = l0[i] ^ gc_.delta;
  }
  const auto chosen = ot_.transfer(l0, l1, evaluator_bits);
  for (std::size_t i = 0; i < ne; ++i) active[ng + i] = chosen[i];

  // Evaluate (client side, using the table as received over the wire).
  Stopwatch timer;
  const auto out_labels = GcEvaluator::eval(*circuit_, client_table_, active);
  stats_.eval_seconds += timer.seconds();

  // Decode.
  std::vector<bool> out(out_labels.size());
  if (reveal_ == RevealTo::kEvaluator || reveal_ == RevealTo::kBoth) {
    // Evaluator decodes with the decode bits received in the offline phase.
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = out_labels[i].lsb() != client_decode_[i];
    }
    if (reveal_ == RevealTo::kBoth) {
      // Both parties return `out`; the garbler's copy is only size-checked.
      channel_.send(Party::kClient, MessageKind::kGcOutputBits,
                    pack_bits(out));
      unpack_bits(
          channel_.recv_expect(Party::kServer, MessageKind::kGcOutputBits),
          out.size());
    }
  } else {
    // Reveal to garbler only: evaluator sends the active lsbs; the garbler
    // XORs what it received with its stored permute bits.
    std::vector<bool> lsbs(out.size());
    for (std::size_t i = 0; i < out.size(); ++i) lsbs[i] = out_labels[i].lsb();
    channel_.send(Party::kClient, MessageKind::kGcOutputBits,
                  pack_bits(lsbs));
    const std::vector<bool> received = unpack_bits(
        channel_.recv_expect(Party::kServer, MessageKind::kGcOutputBits),
        out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = received[i] != gc_.output_labels0[i].lsb();
    }
  }
  return out;
}

}  // namespace primer
