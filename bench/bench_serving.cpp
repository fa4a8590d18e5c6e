// Serving-runtime benchmark: open-loop Poisson arrivals against a
// PrimerServer, measuring sustained session throughput and end-to-end
// latency percentiles (admission wait + service) under multi-tenant load.
//
// Open-loop means arrivals are scheduled by a Poisson clock calibrated to
// ~--rate x the measured capacity and submitted at those times regardless
// of completions — so the admission queue genuinely fills and the numbers
// include queueing, shedding and the per-client key-cache amortization
// (clients cycle through a fixed pool; repeat arrivals resume their cached
// session instead of re-paying key transfer).
//
// Output: the repo-standard JSON lines consumed by tools/compare_bench.py
// (bench names serving_throughput / serving_p50 / serving_p99, gated with
// --only serving against the committed bench/BENCH_serving.json snapshot).
//
//   ./bench_serving                    # 200 sessions, 4 workers, 25 clients
//   ./bench_serving --sessions 400 --workers 8 --rate 1.5 --proto
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/timing.h"
#include "nn/model.h"
#include "nn/train.h"
#include "serving/server.h"

namespace primer {
namespace {

struct Options {
  std::size_t sessions = 200;
  std::size_t workers = 4;
  std::size_t clients = 25;  // client-pool size; repeats hit the key cache
  double rate = 1.2;         // offered load as a multiple of capacity
  std::uint64_t seed = 1;
  bool proto = false;  // kProto2048 (paper profile) instead of kTest2048
  bool json_only = false;
};

Options parse(int argc, char** argv) {
  Options opt;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0) {
      opt.sessions = std::strtoull(need(i), nullptr, 10);
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      opt.workers = std::strtoull(need(i), nullptr, 10);
    } else if (std::strcmp(argv[i], "--clients") == 0) {
      opt.clients = std::strtoull(need(i), nullptr, 10);
    } else if (std::strcmp(argv[i], "--rate") == 0) {
      opt.rate = std::strtod(need(i), nullptr);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opt.seed = std::strtoull(need(i), nullptr, 10);
    } else if (std::strcmp(argv[i], "--proto") == 0) {
      opt.proto = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.json_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_serving [--sessions N] [--workers N] "
                   "[--clients N] [--rate X] [--seed N] [--proto] [--json]\n");
      std::exit(2);
    }
  }
  if (opt.sessions == 0 || opt.workers == 0 || opt.clients == 0 ||
      opt.rate <= 0) {
    std::fprintf(stderr, "bench_serving: all knobs must be positive\n");
    std::exit(2);
  }
  return opt;
}

void emit(const char* bench, const char* label, const char* kernel,
          std::size_t threads, std::uint64_t iters, double wall_s,
          double cpu_s, double s_per_op) {
  std::printf(
      "JSON {\"bench\":\"%s\",\"label\":\"%s\",\"kernel\":\"%s\","
      "\"threads\":%zu,\"iters\":%llu,\"wall_s\":%.6f,\"cpu_s\":%.6f,"
      "\"wall_s_per_op\":%.9f,\"ops_per_s\":%.3f}\n",
      bench, label, kernel, threads,
      static_cast<unsigned long long>(iters), wall_s, cpu_s, s_per_op,
      s_per_op > 0 ? 1.0 / s_per_op : 0.0);
}

int run(const Options& opt) {
  Rng wrng(2025);
  ModelSpec spec;
  spec.weights = quantize(BertWeightsD::random(bert_nano(), wrng));
  spec.variant = PrimerVariant::kFP;
  spec.profile = opt.proto ? HeProfile::kProto2048 : HeProfile::kTest2048;
  const char* kernel = opt.proto ? "proto2048" : "test2048";

  ServerConfig cfg;
  cfg.workers = opt.workers;
  cfg.max_queue = 4 * opt.workers;  // bounded: overload sheds, not buffers
  PrimerServer server({spec}, cfg);

  const std::vector<std::size_t> tokens = {3, 17, 9, 28};
  auto request = [&](std::uint64_t client) {
    InferenceRequest req;
    req.client_id = client;
    req.tokens = tokens;
    return req;
  };

  // Calibrate: two sequential sessions measure the service time (the second
  // also exercises the resume path the steady state will run on).
  Stopwatch calib;
  for (int i = 0; i < 2; ++i) {
    const SessionOutcome o = server.infer(request(1));
    if (o.status != SessionStatus::kCompleted) {
      std::fprintf(stderr, "calibration session failed: %s\n",
                   o.error.c_str());
      return 1;
    }
  }
  const double service_s = calib.seconds() / 2;
  // Effective parallel capacity: workers only pay off up to the core count.
  const std::size_t effective =
      std::max<std::size_t>(1, std::min<std::size_t>(
                                   opt.workers, hardware_threads()));
  const double lambda = opt.rate * static_cast<double>(effective) / service_s;

  if (!opt.json_only) {
    std::printf(
        "serving bench: %zu sessions, %zu workers, %zu clients, "
        "profile=%s, service=%.2fs, poisson rate=%.2f/s (x%.2f load)\n",
        opt.sessions, opt.workers, opt.clients, kernel, service_s, lambda,
        opt.rate);
  }

  // Open-loop Poisson schedule, fixed ahead of time for determinism.
  Rng arr(opt.seed);
  std::vector<double> arrive_s(opt.sessions);
  double t = 0;
  for (std::size_t i = 0; i < opt.sessions; ++i) {
    double u = arr.uniform_real();
    while (u >= 1.0) u = arr.uniform_real();
    t += -std::log(1.0 - u) / lambda;
    arrive_s[i] = t;
  }

  CpuWallTimer timer;
  Stopwatch clock;
  std::vector<std::shared_ptr<SessionTicket>> tickets;
  tickets.reserve(opt.sessions);
  std::uint64_t shed = 0, busy = 0;
  for (std::size_t i = 0; i < opt.sessions; ++i) {
    const double wait = arrive_s[i] - clock.seconds();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    // Open loop: a full queue sheds the arrival; the clock does not stop.
    std::string why;
    auto ticket = server.try_submit(request(1 + i % opt.clients), &why);
    if (ticket == nullptr) {
      ++shed;
    } else {
      tickets.push_back(std::move(ticket));
    }
  }
  for (const auto& ticket : tickets) {
    const SessionOutcome o = ticket->wait();
    if (o.status == SessionStatus::kRejected) {
      ++busy;  // client's previous request still in flight — open-loop cost
    } else if (o.status != SessionStatus::kCompleted) {
      std::fprintf(stderr, "session for client %llu resolved to %s: %s\n",
                   static_cast<unsigned long long>(o.client_id),
                   session_status_name(o.status), o.error.c_str());
      return 1;
    }
  }
  const double wall = clock.seconds();
  const double cpu = timer.cpu_seconds();

  const ServerStats stats = server.stats();
  const std::uint64_t completed = stats.completed - 2;  // minus calibration
  if (completed == 0 || stats.p50_latency_s <= 0 ||
      stats.p99_latency_s <= 0) {
    std::fprintf(stderr, "no completed sessions to report\n");
    return 1;
  }

  char label[128];
  std::snprintf(label, sizeof label, "nano w%zu c%zu x%.2f", opt.workers,
                opt.clients, opt.rate);
  if (!opt.json_only) {
    std::printf(
        "completed=%llu shed=%llu busy=%llu wall=%.1fs "
        "throughput=%.3f/s p50=%.2fs p99=%.2fs resumable_hits=%llu\n",
        static_cast<unsigned long long>(completed),
        static_cast<unsigned long long>(shed),
        static_cast<unsigned long long>(busy), wall,
        static_cast<double>(completed) / wall, stats.p50_latency_s,
        stats.p99_latency_s,
        static_cast<unsigned long long>(stats.sessions.resumable_hits));
  }
  emit("serving_throughput", label, kernel, opt.workers, completed, wall,
       cpu, wall / static_cast<double>(completed));
  emit("serving_p50", label, kernel, opt.workers, completed, wall, cpu,
       stats.p50_latency_s);
  emit("serving_p99", label, kernel, opt.workers, completed, wall, cpu,
       stats.p99_latency_s);
  return 0;
}

}  // namespace
}  // namespace primer

int main(int argc, char** argv) {
  return primer::run(primer::parse(argc, argv));
}
