// Reproduces the Fig. 6 design claim: tokens-first packing cuts homomorphic
// rotations by a factor ~n versus feature-based packing.  Reports both the
// count model at BERT dimensions and LIVE encrypted matmuls (real rotations,
// real wall time) at reduced dimensions, swept over thread counts.
//
// Usage: bench_packing [--threads 1,2,4]
//
// Live runs report wall-clock and aggregate process-CPU seconds so the
// speedup-vs-threads of the parallel execution layer is measurable; JSON
// lines (prefixed "JSON ") carry the same data machine-readably.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/timing.h"
#include "proto/packing.h"
#include "ss/secret_share.h"

using namespace primer;

int main(int argc, char** argv) {
  std::vector<std::size_t> threads;
  for (int i = 1; i < argc; ++i) {
    if (!bench::match_threads_flag(argc, argv, i, threads)) {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (threads.empty()) threads = {num_threads()};

  // ---- count model at paper dimensions -----------------------------------
  std::printf("=== Rotation counts (model, M = 4096 slots) ===\n");
  std::printf("%-32s %14s %14s %8s\n", "matmul shape", "feature-based",
              "tokens-first", "ratio");
  struct Case {
    const char* name;
    std::size_t n, din, dout;
  };
  const Case cases[] = {
      {"embedding 30x30522 -> 768", 30, 30522, 768},
      {"QKV 30x768 -> 768", 30, 768, 768},
      {"FFN 30x768 -> 3072", 30, 768, 3072},
      {"classifier 1x768 -> 3", 1, 768, 3},
  };
  for (const auto& c : cases) {
    const auto fb = packed_matmul_counts(PackingStrategy::kFeatureBased, c.n,
                                         c.din, c.dout, 4096);
    const auto tf = packed_matmul_counts(PackingStrategy::kTokensFirst, c.n,
                                         c.din, c.dout, 4096);
    std::printf("%-32s %14llu %14llu %7.1fx\n", c.name,
                static_cast<unsigned long long>(fb.rotations),
                static_cast<unsigned long long>(tf.rotations),
                static_cast<double>(fb.rotations) /
                    static_cast<double>(std::max<std::uint64_t>(1, tf.rotations)));
  }

  // ---- live encrypted matmuls ---------------------------------------------
  std::printf("\n=== Live encrypted matmul (kProto2048, micro shapes) ===\n");
  HeContext ctx(make_params(HeProfile::kProto2048));
  Rng rng(3);
  KeyGenerator keygen(ctx, rng);
  BatchEncoder encoder(ctx);
  Encryptor enc(ctx, keygen.secret_key(), rng);
  Decryptor dec(ctx, keygen.secret_key());
  Evaluator eval(ctx);
  std::vector<int> gk_steps;
  for (const auto strategy :
       {PackingStrategy::kFeatureBased, PackingStrategy::kTokensFirst}) {
    const PackedMatmul mm(ctx, encoder, eval, strategy);
    for (const int s : mm.rotation_steps(8, 64, 16)) gk_steps.push_back(s);
  }
  const auto gk = keygen.make_galois_keys(gk_steps);
  const ShareRing ring(ctx.t());

  std::printf("%-16s %8s %10s %10s %10s %10s %9s\n", "strategy", "threads",
              "rotations", "mults", "wall_s", "cpu_s", "cpu/wall");
  for (const std::size_t nthreads : threads) {
    set_num_threads(nthreads);
    for (const auto strategy :
         {PackingStrategy::kFeatureBased, PackingStrategy::kTokensFirst}) {
      // Fresh deterministic inputs per run: sampling stays on this thread.
      Rng data_rng(7);
      const MatI x = ring.random(data_rng, 8, 64);
      const MatI w = random_fp_matrix(data_rng, 64, 16, -1.0, 1.0);
      PackedMatmul mm(ctx, encoder, eval, strategy);
      const auto packed = mm.encrypt_input(x, enc);
      PackedMatmulStats stats;
      CpuWallTimer timer;
      const auto result = mm.multiply(packed, mm.encode(w, 8), gk, &stats);
      const double wall = timer.wall_seconds();
      const double cpu = timer.cpu_seconds();
      (void)mm.decrypt_result(result, dec, 8, 16);
      const char* name = strategy == PackingStrategy::kTokensFirst
                             ? "tokens-first"
                             : "feature-based";
      std::printf("%-16s %8zu %10llu %10llu %9.3fs %9.3fs %8.2f\n", name,
                  nthreads, static_cast<unsigned long long>(stats.rotations),
                  static_cast<unsigned long long>(stats.plain_mults), wall,
                  cpu, wall > 0 ? cpu / wall : 0.0);
      std::printf(
          "JSON {\"bench\":\"packed_matmul\",\"strategy\":\"%s\","
          "\"threads\":%zu,\"rotations\":%llu,\"plain_mults\":%llu,"
          "\"wall_s\":%.6f,\"cpu_s\":%.6f}\n",
          name, nthreads, static_cast<unsigned long long>(stats.rotations),
          static_cast<unsigned long long>(stats.plain_mults), wall, cpu);
    }
  }
  return 0;
}
