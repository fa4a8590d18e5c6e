// HE substrate microbenchmarks: NTT, encryption, decryption, homomorphic
// add / plain-mult / rotation / ct-mult across the parameter profiles, swept
// over thread counts and NTT kernel sets.
//
// Usage:
//   bench_he_micro [--threads 1,2,4]
//                  [--kernel scalar,avx2,avx512,avx512ifma] [--reps N]
//                  [--min-time SECONDS] [--json]
//
// Each measurement reports wall-clock seconds, aggregate process CPU
// seconds (so speedup-vs-threads and parallel efficiency are measurable),
// and throughput.  Machine-readable JSON lines (prefixed "JSON ") are
// emitted alongside the human table for the bench trajectory; --json
// suppresses the human-readable lines.  --kernel re-runs the suite once per
// kernel set (via the PRIMER_NTT_KERNEL override); every JSON line carries
// the kernel it ran on.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/fixed_point.h"
#include "common/parallel.h"
#include "common/timing.h"
#include "he/encoder.h"
#include "he/he.h"
#include "net/channel.h"
#include "net/frame.h"
#include "net/framed_channel.h"
#include "net/session_fs.h"
#include "ntt/kernels.h"
#include "ntt/ntt.h"
#include "ntt/primes.h"
#include "nn/model.h"
#include "proto/packing.h"
#include "proto/primer.h"
#include "ss/secret_share.h"

using namespace primer;

namespace {

struct Options {
  std::vector<std::size_t> threads;
  std::vector<std::string> kernels;  // empty -> automatic dispatch only
  int reps = 3;             // batch repetitions per timed sample
  double min_time = 0.05;   // seconds of sampling per benchmark
  bool json_only = false;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (bench::match_threads_flag(argc, argv, i, opt.threads)) {
      continue;
    } else if (std::strcmp(argv[i], "--kernel") == 0 && i + 1 < argc) {
      std::string list = argv[++i];
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const std::size_t comma = list.find(',', pos);
        const std::string k = list.substr(
            pos, comma == std::string::npos ? comma : comma - pos);
        if (!k.empty()) opt.kernels.push_back(k);
        pos = comma == std::string::npos ? comma : comma + 1;
      }
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.json_only = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      opt.reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-time") == 0 && i + 1 < argc) {
      opt.min_time = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (opt.threads.empty()) opt.threads = {num_threads()};
  if (opt.reps < 1) opt.reps = 1;
  if (opt.min_time < 0.0) opt.min_time = 0.0;
  return opt;
}

// Runs `op` until min_time elapses; reports per-op wall/CPU seconds.
void run_bench(const char* name, const char* label, const char* kernel,
               std::size_t threads, const Options& opt,
               const std::function<void()>& op) {
  op();  // warm-up (twiddle caches, allocator)
  std::uint64_t iters = 0;
  CpuWallTimer timer;
  do {
    for (int r = 0; r < opt.reps; ++r) op();
    iters += static_cast<std::uint64_t>(opt.reps);
  } while (timer.wall_seconds() < opt.min_time);
  const double wall = timer.wall_seconds();
  const double cpu = timer.cpu_seconds();
  const double per_op = wall / static_cast<double>(iters);
  if (!opt.json_only) {
    std::printf(
        "%-24s %-10s kernel=%-6s threads=%zu %10.6fs/op %8.1f ops/s  "
        "cpu/wall=%4.2f\n",
        name, label, kernel, threads, per_op,
        per_op > 0 ? 1.0 / per_op : 0.0, wall > 0 ? cpu / wall : 0.0);
  }
  std::printf(
      "JSON {\"bench\":\"%s\",\"label\":\"%s\",\"kernel\":\"%s\","
      "\"threads\":%zu,\"iters\":%llu,\"wall_s\":%.6f,\"cpu_s\":%.6f,"
      "\"wall_s_per_op\":%.9f,\"ops_per_s\":%.3f}\n",
      name, label, kernel, threads, static_cast<unsigned long long>(iters),
      wall, cpu, per_op, per_op > 0 ? 1.0 / per_op : 0.0);
}

struct HeFixture {
  explicit HeFixture(HeProfile profile)
      : ctx(make_params(profile)),
        rng(1),
        keygen(ctx, rng),
        encoder(ctx),
        enc(ctx, keygen.secret_key(), rng),
        dec(ctx, keygen.secret_key()),
        eval(ctx),
        gk(keygen.make_galois_keys({1})),
        rk(keygen.make_relin_key()) {
    std::vector<u64> vals(encoder.slot_count());
    rng.fill_uniform_mod(vals, ctx.t());
    pt = encoder.encode(vals);
    ct = enc.encrypt(pt);
    ct2 = enc.encrypt(pt);
  }
  HeContext ctx;
  Rng rng;
  KeyGenerator keygen;
  BatchEncoder encoder;
  Encryptor enc;
  Decryptor dec;
  Evaluator eval;
  GaloisKeys gk;
  RelinKey rk;
  Plaintext pt;
  Ciphertext ct, ct2;
};

void bench_ntt(std::size_t threads, const Options& opt) {
  for (const std::size_t n : {std::size_t{2048}, std::size_t{4096},
                              std::size_t{8192}}) {
    const u64 p = generate_ntt_primes(50, n, 1)[0];
    const Ntt ntt(n, p);
    Rng rng(2);
    char label[32];
    std::snprintf(label, sizeof label, "n=%zu", n);

    // Single transform: the per-core kernel cost the vector tiers target.
    std::vector<u64> poly(n);
    rng.fill_uniform_mod(poly, p);
    run_bench("ntt_forward", label, ntt.kernel_name(), threads, opt,
              [&] { ntt.forward(poly.data()); });
    // Lazy-output forward (key-switch digit staging): skips the final
    // [0, p) correction sweep.  Outputs stay < 4p, valid NTT inputs.
    run_bench("ntt_forward_lazy", label, ntt.kernel_name(), threads, opt,
              [&] { ntt.forward_lazy_out(poly.data()); });
    // Restore canonical range before the inverse bench.
    ntt.kernel().reduce_span(poly.data(), poly.data(), n, p,
                             Barrett(p).ratio_hi());
    run_bench("ntt_inverse", label, ntt.kernel_name(), threads, opt,
              [&] { ntt.inverse(poly.data()); });

    // A batch models the independent polynomials of a bulk transform (RNS
    // limbs x ciphertexts); larger than any thread count we sweep.
    std::vector<std::vector<u64>> batch(16, std::vector<u64>(n));
    for (auto& b : batch) rng.fill_uniform_mod(b, p);
    run_bench("ntt_forward_batch16", label, ntt.kernel_name(), threads, opt,
              [&] { ntt.forward_batch(batch); });
  }
}

// Every entry of the dispatch table on n=4096 spans, so the --kernel sweep
// benchmarks scalar/AVX2 parity for the FULL kernel surface — the limb ops
// and the key-switch kernels (reduce_span / mul_acc_lazy / reduce_acc_span)
// — not just the NTT butterflies.
void bench_kernel_table(std::size_t threads, const Options& opt) {
  const std::size_t n = 4096;
  const u64 p = generate_ntt_primes(50, n, 1)[0];
  const NttKernel& kern = dispatch_kernel(p);
  const Barrett br(p);
  Rng rng(5);
  std::vector<u64> a(n), b(n), out(n), lo(n), hi(n);
  rng.fill_uniform_mod(a, p);
  rng.fill_uniform_mod(b, p);
  // Arbitrary 64-bit inputs for the re-reduction kernel.
  std::vector<u64> wide(n);
  for (auto& v : wide) {
    v = (rng.uniform(u64{1} << 32) << 32) | rng.uniform(u64{1} << 32);
  }
  const char* label = "n=4096";
  run_bench("kernel_add", label, kern.name, threads, opt,
            [&] { kern.add(out.data(), a.data(), b.data(), n, p); });
  run_bench("kernel_sub", label, kern.name, threads, opt,
            [&] { kern.sub(out.data(), a.data(), b.data(), n, p); });
  run_bench("kernel_neg", label, kern.name, threads, opt,
            [&] { kern.neg(out.data(), a.data(), n, p); });
  run_bench("kernel_mul", label, kern.name, threads, opt, [&] {
    kern.mul(out.data(), a.data(), b.data(), n, p, br.ratio_hi(),
             br.ratio_lo());
  });
  run_bench("kernel_mul_acc", label, kern.name, threads, opt, [&] {
    kern.mul_acc(out.data(), a.data(), b.data(), n, p, br.ratio_hi(),
                 br.ratio_lo());
  });
  const ShoupMul sm(a[0], p, kern.shoup_shift);
  run_bench("kernel_scalar_mul", label, kern.name, threads, opt, [&] {
    kern.scalar_mul(out.data(), a.data(), n, sm.operand, sm.quotient, p);
  });
  run_bench("kernel_reduce_span", label, kern.name, threads, opt, [&] {
    kern.reduce_span(out.data(), wide.data(), n, p, br.ratio_hi());
  });
  run_bench("kernel_mul_acc_lazy", label, kern.name, threads, opt, [&] {
    std::memset(lo.data(), 0, n * sizeof(u64));
    std::memset(hi.data(), 0, n * sizeof(u64));
    for (int d = 0; d < 3; ++d) {
      kern.mul_acc_lazy(lo.data(), hi.data(), a.data(), b.data(), n);
    }
  });
  // Accumulator state for the closing sweep (3 products: within bound).
  std::memset(lo.data(), 0, n * sizeof(u64));
  std::memset(hi.data(), 0, n * sizeof(u64));
  for (int d = 0; d < 3; ++d) {
    kern.mul_acc_lazy(lo.data(), hi.data(), a.data(), b.data(), n);
  }
  run_bench("kernel_reduce_acc_span", label, kern.name, threads, opt, [&] {
    kern.reduce_acc_span(out.data(), lo.data(), hi.data(), n, p,
                         br.ratio_hi(), br.ratio_lo());
  });
  // Quotient tables in the dispatched kernel's own Shoup convention
  // (floor(w * 2^shoup_shift / p): 64 for scalar/avx2/avx512, 52 for
  // avx512ifma).
  std::vector<u64> a_shoup(n), b_shoup(n);
  for (std::size_t i = 0; i < n; ++i) {
    a_shoup[i] =
        static_cast<u64>((static_cast<u128>(a[i]) << kern.shoup_shift) / p);
    b_shoup[i] =
        static_cast<u64>((static_cast<u128>(b[i]) << kern.shoup_shift) / p);
  }
  std::vector<u64> lane(n, 0), lane2(n, 0);
  run_bench("kernel_shoup_mul_acc_lazy2", label, kern.name, threads, opt,
            [&] {
              kern.shoup_mul_acc_lazy2(lane.data(), lane2.data(), out.data(),
                                       b.data(), b_shoup.data(), a.data(),
                                       a_shoup.data(), n, p);
            });
  run_bench("kernel_add_reduce2p", label, kern.name, threads, opt, [&] {
    kern.add_reduce2p(out.data(), a.data(), lane.data(), n, p);
  });
}

// Key-switching data path on the acceptance shape (n=4096, k=3 limbs):
// the raw key_switch primitive, rotations, and the BSGS packed matmul the
// protocols drive it through.
HeParams keyswitch_params() {
  HeParams p;
  p.poly_degree = 4096;
  p.q = generate_ntt_primes(50, p.poly_degree, 3);
  p.t = first_ntt_prime_at_least(u64{1} << 38, p.poly_degree);
  p.name = "ks-4096x3";
  return p;
}

// The PR 3 key_switch data path, kept verbatim as the measured baseline the
// fused implementation is compared against: per-coefficient Barrett
// re-reduction, heap-allocated digit polynomials, and a full modular
// reduction on every accumulate.  Like PR 3's relinearize, the entry point
// is the ciphertext-resident NTT form, so the to_coeff conversion that
// implementation required is part of its measured cost (the fused path
// absorbs the same conversion internally).
void seedref_key_switch(const HeContext& ctx, const RnsPoly& c_ntt,
                        const KSwitchKey& key, RnsPoly& acc0, RnsPoly& acc1) {
  const std::size_t k = ctx.rns_size();
  const std::size_t n = ctx.degree();
  RnsPoly c_coeff = c_ntt;
  ctx.to_coeff(c_coeff);
  std::vector<RnsPoly> digit_b(k), digit_a(k);
  parallel_for(0, k, [&](std::size_t i) {
    RnsPoly digit(k, n, false);
    const u64* src = c_coeff.limb(i);
    for (std::size_t j = 0; j < k; ++j) {
      const Barrett& br = ctx.barrett(j);
      u64* dst = digit.limb(j);
      for (std::size_t c = 0; c < n; ++c) {
        dst[c] = br.reduce(src[c]);
      }
    }
    ctx.to_ntt(digit);
    digit_b[i] = ctx.multiply(digit, key.b[i]);
    ctx.multiply_inplace(digit, key.a[i]);
    digit_a[i] = std::move(digit);
  });
  for (std::size_t i = 0; i < k; ++i) {
    ctx.add_inplace(acc0, digit_b[i]);
    ctx.add_inplace(acc1, digit_a[i]);
  }
}

void bench_keyswitch(std::size_t threads, const Options& opt) {
  const HeContext ctx(keyswitch_params());
  Rng rng(3);
  KeyGenerator keygen(ctx, rng);
  const BatchEncoder encoder(ctx);
  const Encryptor enc(ctx, keygen.secret_key(), rng);
  const Evaluator eval(ctx);
  const RelinKey rk = keygen.make_relin_key();
  const char* kernel = ctx.kernel_name();
  const std::size_t k = ctx.rns_size();
  const std::size_t n = ctx.degree();

  // Raw key_switch on an NTT-form polynomial — the ciphertext-resident
  // shape relinearization and rotations feed it.
  RnsPoly c(k, n, false);
  for (std::size_t i = 0; i < k; ++i) {
    rng.fill_uniform_mod(c.limb(i), n, ctx.q(i));
  }
  ctx.to_ntt(c);
  RnsPoly acc0(k, n, true), acc1(k, n, true);
  run_bench("key_switch", "n=4096 k=3", kernel, threads, opt,
            [&] { eval.key_switch(c, rk.key, acc0, acc1); });
  // The same digits through the PR 3 reference path.  The fused/seedref
  // ops_per_s ratio is the key-switch speedup this layer claims.
  run_bench("key_switch_seedref", "n=4096 k=3", kernel, threads, opt,
            [&] { seedref_key_switch(ctx, c, rk.key, acc0, acc1); });

  // Rotation set of 8 steps on a fresh ciphertext: the per-rotation naive
  // path versus the hoisted set sharing one digit decomposition.
  std::vector<int> steps;
  for (int s = 1; s <= 8; ++s) steps.push_back(s);
  const GaloisKeys gk = keygen.make_galois_keys(steps);
  std::vector<u64> vals(encoder.slot_count());
  rng.fill_uniform_mod(vals, ctx.t());
  const Ciphertext ct = enc.encrypt(encoder.encode(vals));
  run_bench("rotations8_naive", "n=4096 k=3", kernel, threads, opt, [&] {
    for (const int s : steps) {
      Ciphertext a = ct;
      eval.rotate_rows_inplace(a, s, gk);
    }
  });
  run_bench("rotations8_hoisted", "n=4096 k=3", kernel, threads, opt, [&] {
    const auto rots = eval.rotate_rows_many(ct, steps, gk);
    (void)rots;
  });
}

void bench_packed_matmul(std::size_t threads, const Options& opt) {
  const HeContext ctx(keyswitch_params());
  Rng rng(4);
  KeyGenerator keygen(ctx, rng);
  const BatchEncoder encoder(ctx);
  const Encryptor enc(ctx, keygen.secret_key(), rng);
  const Evaluator eval(ctx);
  const char* kernel = ctx.kernel_name();

  const std::size_t tokens = 8, d_in = 64, d_out = 32;
  PackedMatmul mm(ctx, encoder, eval, PackingStrategy::kTokensFirst);
  const GaloisKeys gk =
      keygen.make_galois_keys(mm.rotation_steps(tokens));
  const ShareRing ring(ctx.t());
  const MatI x = ring.random(rng, tokens, d_in);
  const MatI w = random_fp_matrix(rng, d_in, d_out, -1.0, 1.0);
  const auto packed = mm.encrypt_input(x, enc);
  run_bench("packed_matmul", "tf 8x64x32", kernel, threads, opt, [&] {
    const auto out = mm.multiply(packed, w, tokens, ctx.t(), gk, nullptr);
    (void)out;
  });
}

void bench_he(HeFixture& f, const char* label, std::size_t threads,
              const Options& opt, bool with_ct_mult) {
  const char* kernel = f.ctx.kernel_name();
  run_bench("encrypt", label, kernel, threads, opt,
            [&] { Ciphertext out = f.enc.encrypt(f.pt); (void)out; });
  run_bench("decrypt", label, kernel, threads, opt,
            [&] { Plaintext out = f.dec.decrypt(f.ct); (void)out; });
  run_bench("add", label, kernel, threads, opt, [&] {
    Ciphertext a = f.ct;
    f.eval.add_inplace(a, f.ct2);
  });
  run_bench("multiply_plain", label, kernel, threads, opt, [&] {
    Ciphertext a = f.ct;
    f.eval.multiply_plain_inplace(a, f.pt);
  });
  run_bench("multiply_plain_acc", label, kernel, threads, opt, [&] {
    Ciphertext a = f.ct;
    f.eval.multiply_plain_accumulate(a, f.ct2, f.pt);
  });
  run_bench("rotate", label, kernel, threads, opt, [&] {
    Ciphertext a = f.ct;
    f.eval.rotate_rows_inplace(a, 1, f.gk);
  });
  if (with_ct_mult) {
    run_bench("ct_mult_relin", label, kernel, threads, opt, [&] {
      Ciphertext a = f.eval.multiply(f.ct, f.ct2);
      f.eval.relinearize_inplace(a, f.rk);
    });
  }
}

// Transport-framing overhead: a serialized ciphertext pushed through the
// simulated channel raw vs framed (24-byte header + CRC32C + sequence
// check), and the same payload inside a mini encrypt -> ship ->
// decrypt exchange so the delta can be stated against end-to-end work.  The
// bench-trajectory gate (tools/check_framing_overhead.py) asserts the
// end-to-end ratio stays under 2%.
void bench_framing(HeFixture& f, const char* label, const Options& opt) {
  ByteWriter w;
  f.eval.serialize(f.ct, w);
  const std::vector<std::uint8_t> payload = w.take();

  const auto time_loop = [&](const std::function<void()>& op) {
    op();  // warm-up
    std::uint64_t iters = 0;
    CpuWallTimer timer;
    do {
      for (int r = 0; r < opt.reps; ++r) op();
      iters += static_cast<std::uint64_t>(opt.reps);
    } while (timer.wall_seconds() < opt.min_time);
    return timer.wall_seconds() / static_cast<double>(iters);
  };

  Channel raw_ch;
  const double raw_s = time_loop([&] {
    raw_ch.send(Party::kClient, payload);
    (void)raw_ch.recv(Party::kServer);
  });
  Channel framed_base;
  FramedChannel framed(framed_base, FaultSpec{});
  const double framed_s = time_loop([&] {
    framed.send(Party::kClient, MessageKind::kCiphertexts, payload);
    (void)framed.recv_expect(Party::kServer, MessageKind::kCiphertexts);
  });

  // Project the per-byte framing cost onto a real inference: one live nano
  // kFP run (which already ships every message framed) supplies the actual
  // bytes moved and the actual compute spent, so the reported end-to-end
  // ratio is (framing cost for that much traffic) / (that run's compute).
  const double delta_per_byte =
      payload.empty() ? 0.0
                      : (framed_s - raw_s) / static_cast<double>(payload.size());
  Rng weight_rng(2025);
  PrimerEngine engine(quantize(BertWeightsD::random(bert_nano(), weight_rng)),
                      PrimerVariant::kFP, HeProfile::kProto2048);
  const PrimerRunResult run = engine.run({3, 17, 9, 28});
  // The run already ships framed traffic, so the 24-byte headers are billed
  // into its network seconds; the only unaccounted framing cost is the CPU
  // delta (checksum + copy) measured above.  End-to-end = compute + modeled
  // network latency, which is what the cost model exists to report.
  const double run_e2e_s = run.offline_total_s() + run.online_total_s();
  const double framing_cost_s =
      delta_per_byte * static_cast<double>(run.total_bytes);
  const double e2e_ratio = run_e2e_s > 0.0 ? framing_cost_s / run_e2e_s : 0.0;

  // Session-resilience overhead: the same inference with checkpointing and
  // the resume handshake on.  The only extra wire traffic is the two
  // handshake frames (checkpoints are persisted locally, never shipped), and
  // the only extra CPU is checkpoint serialization, micro-measured below —
  // both deterministic, so the <2% gate cannot flake on host noise.
  Rng weight_rng2(2025);
  PrimerEngine resilient(
      quantize(BertWeightsD::random(bert_nano(), weight_rng2)),
      PrimerVariant::kFP, HeProfile::kProto2048);
  SessionStore store;
  const PrimerRunResult rrun = resilient.run_resilient({3, 17, 9, 28}, store);
  const auto cp = store.load(Party::kClient,
                             store.latest_epoch(Party::kClient));
  const double cp_serialize_s = time_loop([&] {
    ByteWriter cw;
    cp->serialize(cw);
    (void)cw.take();
  });
  const NetworkModel net;
  const double session_cost_s =
      2.0 * net.one_way_delay_s +
      static_cast<double>(rrun.handshake_bytes) / net.bandwidth_bytes_per_s +
      2.0 * cp_serialize_s * static_cast<double>(rrun.checkpoints);
  const double session_ratio =
      run_e2e_s > 0.0 ? session_cost_s / run_e2e_s : 0.0;

  // Durable-storage overhead: the same resilient run persisting every
  // checkpoint through the crash-consistent store (serialize -> temp ->
  // fsync -> rename -> dir fsync).  The micro-measured durable save
  // replaces the bare serialization in the session cost — real fsyncs
  // included — so the gate bounds the full price of surviving SIGKILL.
  char dir_tmpl[] = "bench_durable_XXXXXX";
  double durable_save_s = 0.0;
  double durable_cost_s = 0.0;
  double durable_ratio = 0.0;
  SessionStore::Telemetry dtel{};
  std::size_t durable_blob_bytes = 0;
  if (mkdtemp(dir_tmpl) != nullptr) {
    const std::string store_dir = dir_tmpl;
    Rng weight_rng3(2025);
    PrimerEngine durable_engine(
        quantize(BertWeightsD::random(bert_nano(), weight_rng3)),
        PrimerVariant::kFP, HeProfile::kProto2048);
    DurableSessionStore dstore(store_dir);
    const PrimerRunResult drun =
        durable_engine.run_resilient({3, 17, 9, 28}, dstore);
    const auto dcp = dstore.load(Party::kClient,
                                 dstore.latest_epoch(Party::kClient));
    durable_save_s = time_loop([&] { dstore.save(Party::kClient, *dcp); });
    dtel = dstore.telemetry();
    durable_blob_bytes = dstore.blob_bytes();
    durable_cost_s =
        2.0 * net.one_way_delay_s +
        static_cast<double>(drun.handshake_bytes) / net.bandwidth_bytes_per_s +
        2.0 * durable_save_s * static_cast<double>(drun.checkpoints);
    durable_ratio = run_e2e_s > 0.0 ? durable_cost_s / run_e2e_s : 0.0;
    std::system(("rm -rf " + store_dir).c_str());
  }

  const double byte_ratio =
      static_cast<double>(FrameHeader::kWireSize) /
      static_cast<double>(payload.size() + FrameHeader::kWireSize);
  if (!opt.json_only) {
    std::printf(
        "%-24s %-10s payload=%zuB header=%zuB bytes+%.4f%%  "
        "raw=%.9fs framed=%.9fs  e2e+%.4f%%  session+%.4f%%  "
        "durable+%.4f%%\n",
        "framing_overhead", label, payload.size(),
        static_cast<std::size_t>(FrameHeader::kWireSize), 100.0 * byte_ratio,
        raw_s, framed_s, 100.0 * e2e_ratio, 100.0 * session_ratio,
        100.0 * durable_ratio);
  }
  std::printf(
      "JSON {\"bench\":\"framing_overhead\",\"label\":\"%s\",\"kernel\":\"%s\","
      "\"threads\":1,\"payload_bytes\":%zu,\"frame_header_bytes\":%zu,"
      "\"byte_overhead_ratio\":%.9f,\"raw_wall_s_per_op\":%.9f,"
      "\"framed_wall_s_per_op\":%.9f,\"wall_delta_s_per_op\":%.9f,"
      "\"run_total_bytes\":%llu,\"run_e2e_s\":%.6f,"
      "\"framing_cost_s\":%.6f,\"e2e_overhead_ratio\":%.9f,"
      "\"session_checkpoints\":%u,\"session_handshake_bytes\":%llu,"
      "\"session_store_bytes\":%zu,\"session_checkpoint_serialize_s\":%.9f,"
      "\"session_cost_s\":%.6f,\"session_e2e_overhead_ratio\":%.9f,"
      "\"durable_save_s_per_checkpoint\":%.9f,"
      "\"durable_bytes_written\":%llu,\"durable_fsyncs\":%llu,"
      "\"durable_blob_bytes\":%zu,\"durable_cost_s\":%.6f,"
      "\"session_durable_overhead_ratio\":%.9f}\n",
      label, f.ctx.kernel_name(), payload.size(),
      static_cast<std::size_t>(FrameHeader::kWireSize), byte_ratio, raw_s,
      framed_s, framed_s - raw_s,
      static_cast<unsigned long long>(run.total_bytes), run_e2e_s,
      framing_cost_s, e2e_ratio, rrun.checkpoints,
      static_cast<unsigned long long>(rrun.handshake_bytes),
      store.blob_bytes(), cp_serialize_s, session_cost_s, session_ratio,
      durable_save_s, static_cast<unsigned long long>(dtel.bytes_written),
      static_cast<unsigned long long>(dtel.fsyncs), durable_blob_bytes,
      durable_cost_s, durable_ratio);
}

void run_suite(const Options& opt) {
  HeFixture test2048(HeProfile::kTest2048);
  HeFixture light4096(HeProfile::kLight4096);
  HeFixture prod8192(HeProfile::kProd8192);

  // The kernel-table sweep calls the dispatch-table function pointers
  // directly (no pooled work), so it runs once per suite, not per thread
  // count.
  bench_kernel_table(1, opt);
  // Channel work is single-threaded; one pass per suite like the kernel
  // table.
  bench_framing(test2048, "test2048", opt);
  for (const std::size_t t : opt.threads) {
    set_num_threads(t);
    if (!opt.json_only) std::printf("--- threads = %zu ---\n", t);
    bench_ntt(t, opt);
    bench_keyswitch(t, opt);
    bench_packed_matmul(t, opt);
    bench_he(test2048, "test2048", t, opt, /*with_ct_mult=*/true);
    bench_he(light4096, "light4096", t, opt, /*with_ct_mult=*/false);
    bench_he(prod8192, "prod8192", t, opt, /*with_ct_mult=*/true);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

  if (!opt.json_only) {
    std::printf("hardware threads: %zu\n", hardware_threads());
  }
  if (opt.kernels.empty()) {
    run_suite(opt);
    return 0;
  }
  for (const std::string& kernel : opt.kernels) {
    // The override is read at Ntt/HeContext construction, so each sweep
    // iteration rebuilds its fixtures under the requested kernel.
    ::setenv("PRIMER_NTT_KERNEL", kernel.c_str(), 1);
    if (!opt.json_only) {
      std::printf("=== kernel = %s ===\n", kernel.c_str());
    }
    run_suite(opt);
  }
  return 0;
}
