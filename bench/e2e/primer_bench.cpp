// primer_bench: the end-to-end benchmark program behind bench/e2e/run.py.
//
//   primer_bench --workload NAME --seed N --seconds S --scratch DIR
//                [--trace PATH]
//
// Runs one named workload through the library's public API for about S
// seconds, checks every inference's logits bit-for-bit against the
// fixed-point plaintext model, and prints ONE JSON object on stdout:
//
//   {"workload": ..., "attempted": N, "failed": F,
//    "metrics": {"<name>": {"value": v, "unit": "...", "n": samples}, ...},
//    "meta": {...kernel tiers, input properties...}}
//
// Untraced runs report the end-to-end metrics.  With --trace the workload
// runs once more with spans around every call this program makes into a
// layer, followed by a probe pass that times single layer functions at the
// workload's exact profile and shapes; that run reports the per-layer
// metrics and writes the spans as Chrome trace-event JSON to PATH.
// Failed or wrong inferences are listed on stderr and make the exit code 1.
//
// Weights and the serve-mixed arrival schedule are fixed per workload;
// --seed only draws the tokens the clients send, so the program sees
// nothing but them.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/timing.h"
#include "core/primer_api.h"
#include "gc/fixed_circuits.h"
#include "gc/garble_kernels.h"
#include "gc/protocol.h"
#include "he/encoder.h"
#include "he/he.h"
#include "net/crc32c.h"
#include "net/framed_channel.h"
#include "net/session_fs.h"
#include "proto/packing.h"
#include "proto/runtime.h"

namespace fs = std::filesystem;
using namespace primer;

namespace {

using Clock = std::chrono::steady_clock;
using Tokens = std::vector<std::size_t>;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Mode { kSingleClient, kServe };

struct Workload {
  const char* name;
  Mode mode;
  BertConfig config;
  PrimerVariant variant;
  HeProfile profile;
  std::size_t threads;  // global executor size (set_num_threads)
};

BertConfig nano_two_blocks() {
  BertConfig c = bert_nano();
  c.name = "BERT-nano-2blk";
  c.blocks = 2;
  return c;
}

// Why each workload exists is recorded in BENCHMARK.json and README.md.
// nano-prod-fp runs the pool on 2 threads, half of a 4-core host: its
// parallel steps then wait on 2 cores, not on the slowest of all 4, so a
// busy neighbour on a shared host slows it less.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"nano-prod-fp", Mode::kSingleClient, bert_nano(), PrimerVariant::kFP,
       HeProfile::kProd8192, 2},
      {"nano2-proto-fpc", Mode::kSingleClient, nano_two_blocks(),
       PrimerVariant::kFPC, HeProfile::kProto2048, 1},
      {"serve-mixed", Mode::kServe, bert_nano(), PrimerVariant::kFP,
       HeProfile::kProto2048, 1},
  };
  return all;
}

// Weights are a property of the workload, not of the seed.
constexpr std::uint64_t kWeightSeed = 2026;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

// serve-mixed shape.  Rates are absolute (never derived from the code under
// test) so that two commits receive the same offered load, and the arrival
// schedule comes from its own fixed seed, so that every --seed sees the same
// schedule and only the tokens change.
constexpr std::uint64_t kScheduleSeed = 2027;
constexpr std::size_t kServeWorkers = 4;
constexpr std::uint64_t kServeClients = 32;
constexpr std::size_t kServeOutstanding = 8;
constexpr double kLowRps = 1.5;
constexpr double kHighRps = 2.5;
constexpr double kLatencyLimitS = 2.0;  // p90 limit goodput_rps is judged by
constexpr double kDrainLimitS = 5.0;    // backlog must clear within this

// ---------------------------------------------------------------------------
// Small statistics helpers
// ---------------------------------------------------------------------------

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Seconds per call of fn, repeated until `min_s` has elapsed (at least
// `min_reps` calls).
double seconds_per_call(const std::function<void()>& fn, double min_s,
                        int min_reps = 3) {
  Stopwatch sw;
  int reps = 0;
  while (reps < min_reps || sw.seconds() < min_s) {
    fn();
    ++reps;
  }
  return sw.seconds() / reps;
}

// ---------------------------------------------------------------------------
// Metrics output
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  std::size_t n = 0;  // samples the value summarizes
};

class Metrics {
 public:
  void put(const std::string& name, double value, const char* unit,
           std::size_t n) {
    values_[name] = Metric{value, unit, n};
  }
  const std::map<std::string, Metric>& all() const { return values_; }

 private:
  std::map<std::string, Metric> values_;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Tracing: spans around this program's calls into each layer
// ---------------------------------------------------------------------------

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  // While off, spans are not recorded.  The traced single-client loop turns
  // recording off for every other inference, so that the run also times an
  // untraced arm under the same host conditions.
  void set_recording(bool on) { recording_ = enabled_ && on; }

  double now_s() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  // RAII span: name, layer (src/ module), start, end, parent (the span open
  // on this thread when it began) and the inference it belongs to.
  class Span {
   public:
    Span(Tracer& t, const char* name, const char* layer,
         std::int64_t inference = -1)
        : t_(t),
          name_(name),
          layer_(layer),
          inference_(inference),
          active_(t.recording_) {
      if (!active_) return;
      start_s_ = t_.now_s();
      id_ = t_.next_id_.fetch_add(1) + 1;
      parent_ = current_;
      current_ = id_;
    }
    ~Span() {
      if (!active_) return;
      const double end = t_.now_s();
      current_ = parent_;
      t_.record(name_, layer_, start_s_, end, id_, parent_, inference_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    std::uint64_t id() const { return id_; }

   private:
    Tracer& t_;
    const char* name_;
    const char* layer_;
    std::int64_t inference_;
    const bool active_;
    double start_s_ = 0;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
  };

  // Records a span whose interval was measured elsewhere (server-side queue
  // wait and service, reconstructed from a SessionOutcome).
  std::uint64_t add(const char* name, const char* layer, double start_s,
                    double end_s, std::uint64_t parent,
                    std::int64_t inference) {
    if (!recording_) return 0;
    const std::uint64_t id = next_id_.fetch_add(1) + 1;
    record(name, layer, start_s, end_s, id, parent, inference);
    return id;
  }

  // Chrome trace-event JSON (chrome://tracing, Perfetto).
  void write(const std::string& path, const std::string& workload) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    std::lock_guard<std::mutex> lk(mu_);
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":"
        << json_string(workload) << "},\"traceEvents\":[";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":" << json_string(e.name)
          << ",\"cat\":" << json_string(e.layer)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
          << ",\"ts\":" << json_number(e.start_s * 1e6)
          << ",\"dur\":" << json_number((e.end_s - e.start_s) * 1e6)
          << ",\"args\":{\"id\":" << e.id << ",\"parent\":" << e.parent
          << ",\"inference\":" << e.inference << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Event {
    const char* name;
    const char* layer;
    double start_s, end_s;
    std::uint64_t id, parent;
    std::int64_t inference;
    int tid;
  };

  void record(const char* name, const char* layer, double start_s,
              double end_s, std::uint64_t id, std::uint64_t parent,
              std::int64_t inference) {
    std::lock_guard<std::mutex> lk(mu_);
    events_.push_back(
        Event{name, layer, start_s, end_s, id, parent, inference, tid()});
  }

  static int tid() {
    static std::atomic<int> next{0};
    thread_local const int id = next.fetch_add(1);
    return id;
  }

  static thread_local std::uint64_t current_;

  const bool enabled_;
  bool recording_ = enabled_;  // spans are only opened on the main thread
  const Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;  // guards events_
  std::vector<Event> events_;
};

thread_local std::uint64_t Tracer::current_ = 0;

// ---------------------------------------------------------------------------
// Shared run state: inputs, reference check, failure accounting
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  std::string scratch;
  std::string trace_path;  // empty = untraced
};

class Bench {
 public:
  Bench(const Workload& wl, const Args& args)
      : wl(wl),
        args(args),
        tracer(!args.trace_path.empty()),
        weights([&] {
          Rng rng(kWeightSeed);
          return quantize(BertWeightsD::random(wl.config, rng));
        }()),
        reference_model_(weights),
        inputs_(args.seed) {}

  Tokens fresh_tokens() {
    Tokens t(wl.config.tokens);
    for (auto& x : t) x = inputs_.uniform(wl.config.vocab);
    return t;
  }

  // The logits every correct run must reproduce bit-for-bit.
  std::vector<std::int64_t> reference(const Tokens& tokens) const {
    if (wl.variant == PrimerVariant::kFPC) {
      return fixed_forward_chgs(weights, tokens);
    }
    return reference_model_.forward(tokens);
  }

  // Counts one attempted inference.  `logits` is null when it produced no
  // result, and `status` then says why.  A missing result or a logit
  // mismatch is a failure, reported on stderr with the client id.  Returns
  // true iff the result is correct.
  bool check(std::uint64_t client, std::int64_t inference,
             const Tokens& tokens, const std::vector<std::int64_t>* logits,
             const std::string& status = "") {
    ++attempted;
    std::string why = status;
    if (logits != nullptr) {
      Tracer::Span span(tracer, "FixedBert::forward", "nn", inference);
      if (*logits == reference(tokens)) return true;
      why = "logit mismatch";
    }
    ++failed;
    std::fprintf(stderr, "FAIL workload %s inference %lld client %llu: %s\n",
                 wl.name, static_cast<long long>(inference),
                 static_cast<unsigned long long>(client), why.c_str());
    return false;
  }

  const Workload& wl;
  const Args& args;
  Tracer tracer;
  const BertWeightsI weights;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::map<std::string, std::string> meta;

 private:
  const FixedBert reference_model_;
  Rng inputs_;
};

// ---------------------------------------------------------------------------
// Per-inference aggregates shared by both modes
// ---------------------------------------------------------------------------

const char* const kSteps[] = {"embed",  "qkv",    "qk",          "softmax",
                              "attnv",  "others", "key_transfer"};

double step_seconds(const PrimerRunResult& r, const std::string& phase,
                    const std::string& step) {
  const auto& all = r.costs.all();
  const auto p = all.find(phase);
  if (p == all.end()) return 0.0;
  const auto s = p->second.find(step);
  return s == p->second.end() ? 0.0 : s->second.compute_seconds;
}

double step_compute_total(const PrimerRunResult& r) {
  return r.costs.phase_total("offline").compute_seconds +
         r.costs.phase_total("online").compute_seconds;
}

// Mean of f over the results (0 when there are none).
double mean_of(const std::vector<const PrimerRunResult*>& rs,
               const std::function<double(const PrimerRunResult&)>& f) {
  std::vector<double> v;
  v.reserve(rs.size());
  for (const auto* r : rs) v.push_back(f(*r));
  return mean(v);
}

// Per-layer metrics read off the counters PrimerEngine::run already
// returns.  `walls` pairs each result with the wall time it was served in,
// for the share of wall time no step accounts for.
void layer_counters(Bench& b, const std::vector<const PrimerRunResult*>& rs,
                    const std::vector<double>& walls) {
  Metrics& m = b.metrics;
  const std::size_t n = rs.size();
  for (const char* phase : {"offline", "online"}) {
    for (const char* step : kSteps) {
      m.put(std::string("proto.step.") + phase + "." + step + "_s",
            mean_of(rs, [&](const PrimerRunResult& r) {
              return step_seconds(r, phase, step);
            }),
            "s", n);
    }
  }
  std::vector<double> unattributed;
  for (std::size_t i = 0; i < n; ++i) {
    unattributed.push_back(walls[i] - step_compute_total(*rs[i]));
  }
  m.put("proto.unattributed_s", mean(unattributed), "s", n);

  auto both = [](const PrimerRunResult& r) {
    PhaseCost c = r.costs.phase_total("offline");
    c += r.costs.phase_total("online");
    return c;
  };
  m.put("he.rotations",
        mean_of(rs, [&](const PrimerRunResult& r) {
          return static_cast<double>(both(r).he_rotations);
        }),
        "count", n);
  m.put("he.plain_mults",
        mean_of(rs, [&](const PrimerRunResult& r) {
          return static_cast<double>(both(r).he_mults);
        }),
        "count", n);
  m.put("he.ct_mults",
        mean_of(rs, [&](const PrimerRunResult& r) {
          return static_cast<double>(both(r).he_ct_mults);
        }),
        "count", n);
  m.put("gc.and_gates",
        mean_of(rs, [](const PrimerRunResult& r) {
          return static_cast<double>(r.gc_and_gates);
        }),
        "count", n);
  m.put("gc.garble_s",
        mean_of(rs, [](const PrimerRunResult& r) { return r.gc_garble_s; }),
        "s", n);
  m.put("gc.eval_s",
        mean_of(rs, [](const PrimerRunResult& r) { return r.gc_eval_s; }),
        "s", n);
  m.put("gc.table_mb",
        mean_of(rs, [](const PrimerRunResult& r) {
          return static_cast<double>(r.gc_table_bytes) / 1e6;
        }),
        "MB", n);
  m.put("net.key_transfer_mb",
        mean_of(rs, [](const PrimerRunResult& r) {
          std::uint64_t bytes = 0;
          for (const auto& [phase, steps] : r.costs.all()) {
            const auto s = steps.find("key_transfer");
            if (s != steps.end()) bytes += s->second.bytes_sent;
          }
          return static_cast<double>(bytes) / 1e6;
        }),
        "MB", n);
  m.put("net.flights",
        mean_of(rs, [](const PrimerRunResult& r) {
          return static_cast<double>(r.rounds);
        }),
        "count", n);
  m.put("net.frames",
        mean_of(rs, [](const PrimerRunResult& r) {
          return static_cast<double>(r.frames_sent);
        }),
        "count", n);
  m.put("net.modeled_wire_s",
        mean_of(rs, [](const PrimerRunResult& r) {
          return r.offline_network_s + r.online_network_s;
        }),
        "s", n);
  m.put("net.replayed_mb",
        mean_of(rs, [](const PrimerRunResult& r) {
          return static_cast<double>(r.replayed_bytes) / 1e6;
        }),
        "MB", n);
}

// End-to-end metrics every workload shares: online compute, wire and
// online interactions per inference.
void result_metrics(Bench& b, const std::vector<const PrimerRunResult*>& rs) {
  std::vector<double> online, wire, flights;
  for (const auto* r : rs) {
    online.push_back(r->online_compute_s);
    wire.push_back(static_cast<double>(r->total_bytes) / 1e6);
    flights.push_back(
        static_cast<double>(r->costs.phase_total("online").rounds));
  }
  b.metrics.put("online_s", median(online), "s", rs.size());
  b.metrics.put("wire_mb", mean(wire), "MB", rs.size());
  b.metrics.put("online_flights", mean(flights), "count", rs.size());
}

// ---------------------------------------------------------------------------
// Single-client workloads: one client in a closed loop
// ---------------------------------------------------------------------------

struct SingleSample {
  PrimerRunResult result;
  double wall_s = 0;
  double cpu_s = 0;
  bool traced = false;  // spans were recorded for this inference
};

void run_single_client(Bench& b) {
  const Workload& wl = b.wl;
  std::unique_ptr<PrimerEngine> engine;
  std::int64_t inference = 0;

  // Set-up: construct the engine and produce the first verified result
  // (which also warms the executor and the arenas).  Repeated; the median
  // is setup_s.
  std::vector<double> setups;
  const int setup_count = b.tracer.enabled() ? 1 : kSetups;
  for (int k = 0; k < setup_count; ++k) {
    engine.reset();
    const Tokens tokens = b.fresh_tokens();
    Stopwatch sw;
    Tracer::Span span(b.tracer, "setup", "bench", inference);
    engine = std::make_unique<PrimerEngine>(b.weights, wl.variant, wl.profile);
    PrimerRunResult r;
    {
      Tracer::Span run(b.tracer, "PrimerEngine::run", "proto", inference);
      r = engine->run(tokens);
    }
    b.check(0, inference++, tokens, &r.logits);
    setups.push_back(sw.seconds());
  }

  // A traced run records spans for every other inference only; the other
  // half is an untraced arm timed under the same host conditions, and the
  // two arms' median walls give trace.overhead.
  std::vector<SingleSample> samples;
  const bool traced = b.tracer.enabled();
  Stopwatch loop;
  for (std::size_t k = 0; loop.seconds() < b.args.seconds || (traced && k < 2);
       ++k) {
    const Tokens tokens = b.fresh_tokens();
    SingleSample s;
    s.traced = traced && k % 2 == 0;
    b.tracer.set_recording(s.traced);
    try {
      Tracer::Span span(b.tracer, "PrimerEngine::run", "proto", inference);
      CpuWallTimer t;
      s.result = engine->run(tokens);
      s.wall_s = t.wall_seconds();
      s.cpu_s = t.cpu_seconds();
    } catch (const std::exception& e) {
      b.check(0, inference++, tokens, nullptr,
              std::string("run threw: ") + e.what());
      continue;
    }
    if (b.check(0, inference++, tokens, &s.result.logits)) {
      samples.push_back(std::move(s));
    }
  }
  const double loop_s = loop.seconds();
  b.tracer.set_recording(true);

  std::vector<const PrimerRunResult*> rs;
  std::vector<double> walls, cpus;
  for (const auto& s : samples) {
    rs.push_back(&s.result);
    walls.push_back(s.wall_s);
    cpus.push_back(s.cpu_s);
  }
  const std::size_t n = samples.size();
  Metrics& m = b.metrics;
  if (!traced) {
    m.put("setup_s", median(setups), "s", setups.size());
    m.put("latency_s", median(walls), "s", n);
    m.put("cpu_s", mean(cpus), "s", n);
    m.put("capacity_rps", static_cast<double>(n) / loop_s, "1/s", n);
    result_metrics(b, rs);
    return;
  }
  layer_counters(b, rs, walls);
  double cpu_total = 0, wall_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cpu_total += cpus[i];
    wall_total += walls[i];
  }
  const double parallelism = wall_total > 0 ? cpu_total / wall_total : 0.0;
  m.put("common.parallelism", parallelism, "ratio", n);
  m.put("serving.cpu_util",
        parallelism / static_cast<double>(hardware_threads()), "ratio", n);
  // No server in the loop: the serving layer does no work here.
  for (const char* name :
       {"serving.queue_wait_s.p50", "serving.queue_wait_s.p90",
        "serving.service_s.p50", "serving.p50_s.low", "serving.p90_s.low",
        "serving.p50_s.high", "serving.p90_s.high"}) {
    m.put(name, 0.0, "s", 0);
  }
  m.put("serving.admit_us", 0.0, "us", 0);
  m.put("serving.resumable_hit_ratio", 0.0, "ratio", 0);
  m.put("serving.goodput_rps", 0.0, "1/s", 0);
  m.put("serving.generator_late_ms", 0.0, "ms", 0);
  for (const char* name :
       {"serving.shed", "serving.rejected", "serving.restarts"}) {
    m.put(name, 0.0, "count", 0);
  }
  m.put("serving.repeat_share", 0.0, "ratio", n);  // every query is fresh
  m.put("net.store_fsyncs", 0.0, "count", n);
  std::vector<double> traced_walls, untraced_walls;
  for (const auto& s : samples) {
    (s.traced ? traced_walls : untraced_walls).push_back(s.wall_s);
  }
  const double untraced_p50 = median(untraced_walls);
  m.put("trace.latency_s", median(traced_walls), "s", traced_walls.size());
  m.put("trace.overhead",
        untraced_p50 > 0 ? median(traced_walls) / untraced_p50 - 1 : 0.0,
        "ratio", n);
}

// ---------------------------------------------------------------------------
// serve-mixed: PrimerServer under an open-loop and a closed-loop load
// ---------------------------------------------------------------------------

struct ServeRequest {
  std::uint64_t client = 0;
  Tokens tokens;
  bool repeat = false;  // same tokens as the client's previous request
  std::int64_t inference = 0;
  double due_s = 0;     // tracer clock
  double submit_s = 0;  // tracer clock
  double admit_us = 0;
  std::shared_ptr<SessionTicket> ticket;
  SessionOutcome outcome;
  double latency_s = 0;  // from due time: lateness + queue wait + service
};

class ServeRun {
 public:
  explicit ServeRun(Bench& b)
      : b_(b),
        schedule_(kScheduleSeed),
        last_(kServeClients + 1),
        last_repeated_(kServeClients + 1, true) {}

  void run() {
    const fs::path root = fs::path(b_.args.scratch) / "stores";
    std::vector<ModelSpec> models{
        ModelSpec{b_.weights, b_.wl.variant, b_.wl.profile, 7}};

    // Set-up: a server over a fresh durable store (construction runs the
    // recovery scan) up to its first verified result.  Repeated; the
    // median is setup_s.
    std::vector<double> setups;
    const int setup_count = b_.tracer.enabled() ? 1 : kSetups;
    for (int k = 0; k < setup_count; ++k) {
      server_.reset();
      ServerConfig cfg;
      cfg.workers = kServeWorkers;
      cfg.store_dir = (root / ("setup" + std::to_string(k))).string();
      const Tokens tokens = b_.fresh_tokens();
      Stopwatch sw;
      Tracer::Span span(b_.tracer, "setup", "bench", next_inference_);
      server_ = std::make_unique<PrimerServer>(models, cfg);
      ServeRequest r = make_request(1, tokens);
      submit(r);
      collect(r);
      setups.push_back(sw.seconds());
    }
    // Each client alternates fresh and repeated requests, starting fresh.
    // The odd clients send their first (fresh) request before the measured
    // phases, so in round-robin order the measured requests alternate too:
    // odd clients repeat where even clients send fresh tokens.
    {
      Tracer::Span span(b_.tracer, "prime_clients", "bench");
      std::vector<ServeRequest> prime;
      for (std::uint64_t c = 1; c <= kServeClients; c += 2) {
        prime.push_back(next_request(c));
      }
      for (auto& r : prime) submit(r);
      for (auto& r : prime) collect(r);
    }

    // latency_s is the low phase's median, so that phase gets the most
    // arrivals (about 55% of the run); the high phase feeds only per-layer
    // metrics (about 15%); the closed loop takes 25%.
    const double s = b_.args.seconds;
    const auto arrivals = [](double n) {
      return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(n)));
    };
    const ServerStats before = server_->stats();
    const double cpu0 = process_cpu_seconds();
    const double wall0 = b_.tracer.now_s();

    const Phase low = open_loop_phase("low", kLowRps, arrivals(0.8 * s));
    const Phase high = open_loop_phase("high", kHighRps, arrivals(0.4 * s));
    const double capacity = closed_loop_phase(0.25 * s);

    const double cpu_s = process_cpu_seconds() - cpu0;
    const double wall_s = b_.tracer.now_s() - wall0;
    const ServerStats after = server_->stats();
    server_.reset();
    report(setups, low, high, capacity, cpu_s, wall_s, before, after);
  }

 private:
  struct Phase {
    const char* name;
    double rate = 0;
    std::vector<ServeRequest> requests;
    double generator_late_s = 0;  // worst submit lateness
    double backlog_clear_s = 0;   // last completion - last due time
    std::size_t failures = 0;

    std::vector<double> latencies() const {
      std::vector<double> v;
      for (const auto& r : requests) {
        if (r.outcome.status == SessionStatus::kCompleted) {
          v.push_back(r.latency_s);
        }
      }
      return v;
    }
    bool meets_limit() const {
      return failures == 0 && backlog_clear_s <= kDrainLimitS &&
             quantile(latencies(), 0.9) <= kLatencyLimitS;
    }
  };

  // A request from `client`; its tokens are what the client's next repeat
  // sends.
  ServeRequest make_request(std::uint64_t client, Tokens tokens) {
    last_[client] = tokens;
    ServeRequest r;
    r.client = client;
    r.tokens = std::move(tokens);
    r.inference = next_inference_++;
    return r;
  }

  // The client's next request: a repeat of its previous tokens (which the
  // server may replay from its checkpoint cache) if its previous request
  // was fresh, otherwise fresh tokens.
  ServeRequest next_request(std::uint64_t client) {
    const bool repeat = !last_repeated_[client];
    last_repeated_[client] = repeat;
    ServeRequest r =
        make_request(client, repeat ? last_[client] : b_.fresh_tokens());
    r.repeat = repeat;
    return r;
  }

  // Submits the request; one that was not scheduled in advance is due now.
  void submit(ServeRequest& r, bool scheduled = false) {
    InferenceRequest req;
    req.client_id = r.client;
    req.tokens = r.tokens;
    r.submit_s = b_.tracer.now_s();
    if (!scheduled) r.due_s = r.submit_s;
    Tracer::Span span(b_.tracer, "PrimerServer::try_submit", "serving",
                      r.inference);
    std::string why;
    const auto t0 = Clock::now();
    r.ticket = server_->try_submit(std::move(req), &why);
    r.admit_us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (r.ticket == nullptr) {
      r.outcome.status = SessionStatus::kShed;
      r.outcome.error = why;
    }
  }

  // Waits for the request's outcome and verifies it.  Returns true iff it
  // completed with the reference logits.
  bool collect(ServeRequest& r) {
    if (r.ticket != nullptr) r.outcome = r.ticket->wait();
    const SessionOutcome& o = r.outcome;
    r.latency_s = (r.submit_s - r.due_s) + o.wait_s + o.service_s;
    if (b_.tracer.enabled() && r.ticket != nullptr) {
      const std::uint64_t id =
          b_.tracer.add("request", "bench", r.due_s, r.due_s + r.latency_s, 0,
                        r.inference);
      const double started = r.submit_s + o.wait_s;
      b_.tracer.add("queue_wait", "serving", r.submit_s, started, id,
                    r.inference);
      b_.tracer.add("PrimerEngine::run_with_options", "proto", started,
                    started + o.service_s, id, r.inference);
    }
    if (o.status == SessionStatus::kCompleted) {
      return b_.check(r.client, r.inference, r.tokens, &o.result.logits);
    }
    std::string status = session_status_name(o.status);
    if (!o.error.empty()) status += ": " + o.error;
    return b_.check(r.client, r.inference, r.tokens, nullptr, status);
  }

  // Open loop: `arrivals` Poisson arrivals at `rate`, sent from this one
  // generator thread whether or not earlier ones have completed.  Clients
  // take turns in round-robin order.  The gaps come from the fixed schedule
  // seed, so every --seed sees the same arrival times.
  Phase open_loop_phase(const char* name, double rate, std::size_t arrivals) {
    Phase p;
    p.name = name;
    p.rate = rate;
    double offset_s = 0;
    for (std::size_t j = 0; j < arrivals; ++j) {
      const std::uint64_t client = arrival_++ % kServeClients + 1;
      p.requests.push_back(next_request(client));
      p.requests.back().due_s = offset_s;
      offset_s += -std::log(1.0 - schedule_.uniform_real()) / rate;
    }
    Tracer::Span span(b_.tracer, name, "bench");
    const double t0 = b_.tracer.now_s();
    for (std::size_t j = 0; j < arrivals; ++j) {
      ServeRequest& r = p.requests[j];
      r.due_s += t0;
      const double wait = r.due_s - b_.tracer.now_s();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      submit(r, /*scheduled=*/true);
      p.generator_late_s = std::max(p.generator_late_s, r.submit_s - r.due_s);
    }
    double last_done = 0;
    for (auto& r : p.requests) {
      if (!collect(r)) ++p.failures;
      last_done = std::max(last_done, r.due_s + r.latency_s);
    }
    p.backlog_clear_s =
        std::max(0.0, last_done - p.requests.back().due_s);
    return p;
  }

  // Closed loop: kServeOutstanding requests kept in flight for `window_s`;
  // each completion hands the longest-idle client its next request.  Returns
  // completions per second over the window, crediting each request with the
  // share of its service interval that fell inside the window — counting
  // whole completions would quantize the rate by the batches in which the
  // workers finish.
  double closed_loop_phase(double window_s) {
    Tracer::Span span(b_.tracer, "capacity", "bench");
    std::deque<std::uint64_t> idle;
    for (std::uint64_t c = 1; c <= kServeClients; ++c) idle.push_back(c);
    std::vector<std::unique_ptr<ServeRequest>> in_flight;
    const double t0 = b_.tracer.now_s();
    for (;;) {
      while (in_flight.size() < kServeOutstanding && !idle.empty() &&
             b_.tracer.now_s() - t0 < window_s) {
        const std::uint64_t c = idle.front();
        idle.pop_front();
        auto r = std::make_unique<ServeRequest>(next_request(c));
        submit(*r);
        in_flight.push_back(std::move(r));
      }
      if (in_flight.empty()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      for (std::size_t i = 0; i < in_flight.size();) {
        ServeRequest& r = *in_flight[i];
        if (r.ticket != nullptr && !r.ticket->done()) {
          ++i;
          continue;
        }
        collect(r);
        idle.push_back(r.client);
        capacity_requests_.push_back(std::move(in_flight[i]));
        in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    double credit = 0;
    for (const auto& r : capacity_requests_) {
      const SessionOutcome& o = r->outcome;
      if (o.status != SessionStatus::kCompleted || o.service_s <= 0) continue;
      const double start = r->submit_s + o.wait_s;
      const double inside = std::min(start + o.service_s, t0 + window_s) -
                            std::max(start, t0);
      credit += std::max(0.0, inside) / o.service_s;
    }
    capacity_n_ = capacity_requests_.size();
    return credit / window_s;
  }

  void report(const std::vector<double>& setups, const Phase& low,
              const Phase& high, double capacity, double cpu_s,
              double wall_s, const ServerStats& before,
              const ServerStats& after) {
    Metrics& m = b_.metrics;
    std::vector<const PrimerRunResult*> open_rs;
    std::vector<double> waits, services, admits;
    for (const Phase* p : {&low, &high}) {
      for (const auto& r : p->requests) {
        admits.push_back(r.admit_us);
        if (r.outcome.status != SessionStatus::kCompleted) continue;
        open_rs.push_back(&r.outcome.result);
        waits.push_back(r.outcome.wait_s);
        services.push_back(r.outcome.service_s);
      }
    }
    const std::size_t done = after.completed - before.completed;
    std::size_t issued = capacity_requests_.size(), repeats = 0;
    for (const auto& r : capacity_requests_) repeats += r->repeat ? 1 : 0;
    for (const Phase* p : {&low, &high}) {
      issued += p->requests.size();
      for (const auto& r : p->requests) repeats += r.repeat ? 1 : 0;
    }
    const double repeat_share =
        static_cast<double>(repeats) / static_cast<double>(issued);
    b_.meta["repeat_share"] = json_number(repeat_share);
    // latency_s is taken at the low rate.  At the high rate (about 70% of
    // capacity) queueing multiplies any change in service time several
    // times over, host drift included, so that phase's latencies are
    // per-layer metrics.
    const std::vector<double> low_lat = low.latencies();

    if (!b_.tracer.enabled()) {
      m.put("setup_s", median(setups), "s", setups.size());
      m.put("latency_s", median(low_lat), "s", low_lat.size());
      m.put("cpu_s", done > 0 ? cpu_s / static_cast<double>(done) : 0.0, "s",
            done);
      m.put("capacity_rps", capacity, "1/s", capacity_n_);
      result_metrics(b_, open_rs);
      return;
    }

    std::vector<const PrimerRunResult*> all_rs = open_rs;
    std::vector<double> all_service = services;
    for (const auto& r : capacity_requests_) {
      if (r->outcome.status != SessionStatus::kCompleted) continue;
      all_rs.push_back(&r->outcome.result);
      all_service.push_back(r->outcome.service_s);
    }
    layer_counters(b_, all_rs, all_service);
    const double per = done > 0 ? 1.0 / static_cast<double>(done) : 0.0;
    m.put("net.store_fsyncs",
          static_cast<double>(after.sessions.store_fsyncs -
                              before.sessions.store_fsyncs) * per,
          "count", done);
    m.put("serving.queue_wait_s.p50", median(waits), "s", waits.size());
    m.put("serving.queue_wait_s.p90", quantile(waits, 0.9), "s", waits.size());
    m.put("serving.service_s.p50", median(services), "s", services.size());
    m.put("serving.admit_us", median(admits), "us", admits.size());
    m.put("serving.repeat_share", repeat_share, "ratio", issued);
    const std::uint64_t served = after.accepted - before.accepted;
    m.put("serving.resumable_hit_ratio",
          served > 0 ? static_cast<double>(after.sessions.resumable_hits -
                                           before.sessions.resumable_hits) /
                           static_cast<double>(served)
                     : 0.0,
          "ratio", served);
    const double parallelism = wall_s > 0 ? cpu_s / wall_s : 0.0;
    m.put("common.parallelism", parallelism, "ratio", done);
    m.put("serving.cpu_util",
          parallelism / static_cast<double>(hardware_threads()), "ratio",
          done);
    m.put("serving.shed", static_cast<double>(after.shed - before.shed),
          "count", served);
    m.put("serving.rejected",
          static_cast<double>(after.rejected - before.rejected), "count",
          served);
    double restarts = 0;
    for (const auto* r : all_rs) restarts += r->restarts;
    m.put("serving.restarts", restarts, "count", all_rs.size());
    m.put("serving.generator_late_ms",
          1e3 * std::max(low.generator_late_s, high.generator_late_s), "ms",
          low.requests.size() + high.requests.size());
    for (const Phase* p : {&low, &high}) {
      const auto lat = p->latencies();
      m.put(std::string("serving.p50_s.") + p->name, median(lat), "s",
            lat.size());
      m.put(std::string("serving.p90_s.") + p->name, quantile(lat, 0.9), "s",
            lat.size());
    }
    double goodput = 0;
    for (const Phase* p : {&low, &high}) {
      if (p->meets_limit()) goodput = std::max(goodput, p->rate);
    }
    m.put("serving.goodput_rps", goodput, "1/s",
          low.requests.size() + high.requests.size());
    m.put("trace.latency_s", median(low_lat), "s", low_lat.size());
    // Not measured here: concurrent requests share one queue, so an
    // untraced arm inside the run would not be independent of the traced.
    m.put("trace.overhead", 0.0, "ratio", 0);
  }

  Bench& b_;
  std::unique_ptr<PrimerServer> server_;
  Rng schedule_;  // open-loop inter-arrival gaps
  // Each client's previous tokens and whether that request was a repeat
  // (true before its first request, which is therefore fresh), indexed by
  // client id.
  std::vector<Tokens> last_;
  std::vector<bool> last_repeated_;
  std::vector<std::unique_ptr<ServeRequest>> capacity_requests_;
  std::size_t capacity_n_ = 0;
  std::int64_t next_inference_ = 0;
  std::uint64_t arrival_ = 0;
};

// ---------------------------------------------------------------------------
// Probe pass (traced runs): single layer functions at the workload's shapes
// ---------------------------------------------------------------------------

constexpr double kProbeSeconds = 0.25;  // minimum timing window per probe

void probe_he_ntt(Bench& b) {
  const Workload& wl = b.wl;
  Metrics& m = b.metrics;
  HeContext ctx(make_params(wl.profile));
  BatchEncoder encoder(ctx);
  Evaluator eval(ctx);
  Rng rng(b.args.seed);
  KeyGenerator keygen(ctx, rng);
  const std::vector<int> steps =
      PackedMatmul(ctx, encoder, eval, PackingStrategy::kTokensFirst)
          .rotation_steps(wl.config.tokens);

  GaloisKeys gk;
  {
    Tracer::Span span(b.tracer, "KeyGenerator::make_galois_keys", "he");
    Stopwatch sw;
    gk = keygen.make_galois_keys(steps);
    keygen.make_relin_key();
    m.put("he.keygen_s", sw.seconds(), "s", 1);
  }
  Encryptor enc(ctx, keygen.secret_key(), rng);
  Decryptor dec(ctx, keygen.secret_key());
  std::vector<std::uint64_t> values(encoder.slot_count());
  for (auto& v : values) v = rng.uniform(ctx.t());
  const Plaintext pt = encoder.encode(values);
  const Ciphertext ct = enc.encrypt(pt);
  {
    Tracer::Span span(b.tracer, "Encryptor::encrypt", "he");
    m.put("he.encrypt_us",
          1e6 * seconds_per_call([&] { enc.encrypt(pt); }, kProbeSeconds),
          "us", 1);
  }
  {
    Tracer::Span span(b.tracer, "Decryptor::decrypt", "he");
    m.put("he.decrypt_us",
          1e6 * seconds_per_call([&] { dec.decrypt(ct); }, kProbeSeconds),
          "us", 1);
  }
  {
    Tracer::Span span(b.tracer, "Evaluator::rotate_rows_many", "he");
    const double per_set = seconds_per_call(
        [&] { eval.rotate_rows_many(ct, steps, gk); }, kProbeSeconds);
    m.put("he.rotate_us", 1e6 * per_set / static_cast<double>(steps.size()),
          "us", steps.size());
  }
  {
    Tracer::Span span(b.tracer, "Evaluator::multiply_plain_accumulate", "he");
    Ciphertext acc;
    m.put("he.mul_plain_acc_us",
          1e6 * seconds_per_call(
                    [&] { eval.multiply_plain_accumulate(acc, ct, pt); },
                    kProbeSeconds),
          "us", 1);
  }
  {
    Tracer::Span span(b.tracer, "Evaluator::serialize+deserialize", "he");
    std::size_t bytes = 0;
    const double per = seconds_per_call(
        [&] {
          ByteWriter w;
          eval.serialize(ct, w);
          ByteReader r(w.data());
          eval.deserialize(r);
          bytes = w.size();
        },
        kProbeSeconds);
    m.put("he.ct_serde_mb_per_s", static_cast<double>(bytes) / 1e6 / per,
          "MB/s", 1);
  }
  {
    const Ntt& ntt = ctx.ntt(0);
    std::vector<std::uint64_t> a(ctx.degree());
    for (auto& v : a) v = rng.uniform(ctx.q(0));
    Tracer::Span span(b.tracer, "Ntt::forward+inverse", "ntt");
    m.put("ntt.forward_us",
          1e6 * seconds_per_call([&] { ntt.forward(a.data()); },
                                 kProbeSeconds),
          "us", 1);
    m.put("ntt.inverse_us",
          1e6 * seconds_per_call([&] { ntt.inverse(a.data()); },
                                 kProbeSeconds),
          "us", 1);
  }
  {
    Tracer::Span span(b.tracer, "ProtocolContext+start_session", "proto");
    m.put("proto.context_s",
          seconds_per_call(
              [&] {
                ProtocolContext pc(wl.profile, 7, steps, SessionOptions{});
                pc.start_session();
              },
              kProbeSeconds, 1),
          "s", 1);
  }
}

void probe_gc(Bench& b) {
  const Workload& wl = b.wl;
  const BertConfig& cfg = wl.config;
  const FixedPointFormat& fmt = b.weights.fmt;
  const std::uint64_t t = make_params(wl.profile).t;
  const std::size_t width = share_width(t);
  const auto frac = static_cast<std::size_t>(fmt.frac_bits);

  // The softmax, GELU and layer-norm circuits of the workload's first block,
  // with the number of garbler-side input bits of each.
  struct Shape {
    Circuit circuit;
    std::size_t garbler_bits;
  };
  std::vector<Shape> shapes;
  {
    SoftmaxCircuitSpec s;
    s.t = t;
    s.count = cfg.tokens;
    s.frac_shift = wl.variant == PrimerVariant::kFPC ? 3 * frac : frac;
    s.fmt = fmt;
    shapes.push_back({make_softmax_circuit(s), cfg.tokens * width});
  }
  {
    ActivationCircuitSpec s;
    s.t = t;
    s.count = cfg.tokens * cfg.d_ff;
    s.frac_shift = frac;
    s.act = Activation::kGelu;
    s.fmt = fmt;
    shapes.push_back({make_activation_circuit(s), s.count * width});
  }
  {
    LayerNormCircuitSpec s;
    s.t = t;
    s.d = cfg.d_model;
    s.frac_shift = frac;
    s.gamma = b.weights.blocks[0].ln1_gamma;
    s.beta = b.weights.blocks[0].ln1_beta;
    s.fmt = fmt;
    shapes.push_back({make_layernorm_circuit(s), 2 * cfg.d_model * width});
  }

  Rng rng(b.args.seed);
  double gates = 0, garble_s = 0, eval_s = 0;
  Tracer::Span span(b.tracer, "GcSession::offline+online", "gc");
  Stopwatch sw;
  while (sw.seconds() < 2 * kProbeSeconds) {
    for (const Shape& s : shapes) {
      std::vector<bool> bits(static_cast<std::size_t>(s.circuit.num_inputs));
      for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = rng.next() & 1;
      const std::vector<bool> g(bits.begin(), bits.begin() + s.garbler_bits);
      const std::vector<bool> e(bits.begin() + s.garbler_bits, bits.end());
      Channel ch;
      FramedChannel framed(ch, FaultSpec{}, RetryPolicy{});
      GcSession session(framed, rng);
      session.offline(s.circuit, RevealTo::kGarbler);
      session.online(g, e);
      gates += static_cast<double>(session.stats().and_gates);
      garble_s += session.stats().garble_seconds;
      eval_s += session.stats().eval_seconds;
    }
  }
  b.metrics.put("gc.garble_mgates_per_s", gates / 1e6 / garble_s, "Mgates/s",
                1);
  b.metrics.put("gc.eval_mgates_per_s", gates / 1e6 / eval_s, "Mgates/s", 1);
}

void probe_net(Bench& b, double frames_per_inference) {
  Metrics& m = b.metrics;
  {
    Tracer::Span span(b.tracer, "FramedChannel::send+recv_expect", "net");
    const std::vector<std::uint8_t> payload(std::size_t{1} << 20, 0x5a);
    Channel ch;
    FramedChannel framed(ch, FaultSpec{}, RetryPolicy{});
    const double per = seconds_per_call(
        [&] {
          framed.send(Party::kClient, MessageKind::kRingMatrix, payload);
          framed.recv_expect(Party::kServer, MessageKind::kRingMatrix);
        },
        kProbeSeconds);
    m.put("net.framing_mb_per_s",
          static_cast<double>(payload.size()) / 1e6 / per, "MB/s", 1);
  }
  {
    // A checkpoint carrying one inference's frame journal, saved through
    // the durable store (temp file, fsync, rename, directory fsync).
    const fs::path dir = fs::path(b.args.scratch) / "probe_store";
    DurableSessionStore store(dir.string(), DurableSessionStore::Options{});
    SessionCheckpoint cp;
    cp.session_id = 1;
    cp.phase = "probe";
    const auto frames = static_cast<std::size_t>(frames_per_inference);
    for (int d = 0; d < 2; ++d) {
      cp.send_watermark[d] = frames / 2;
      cp.frame_crc[d].assign(frames / 2, 0x12345678u);
    }
    std::vector<double> save_ms;
    Tracer::Span span(b.tracer, "DurableSessionStore::save", "net");
    Stopwatch sw;
    for (std::uint32_t epoch = 1; epoch <= 5 || sw.seconds() < kProbeSeconds;
         ++epoch) {
      cp.epoch = epoch;
      Stopwatch one;
      store.save(Party::kClient, cp);
      save_ms.push_back(one.seconds() * 1e3);
    }
    m.put("net.checkpoint_save_ms", median(save_ms), "ms", save_ms.size());
  }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--scratch") {
      a.scratch = v;
    } else if (flag == "--trace") {
      a.trace_path = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.scratch.empty() || !(a.seconds > 0)) {
    throw std::invalid_argument(
        "usage: primer_bench --workload NAME --seed N --seconds S "
        "--scratch DIR [--trace PATH]");
  }
  return a;
}

void print_result(const Bench& b) {
  std::string out = "{\"workload\":" + json_string(b.wl.name) +
                    ",\"seed\":" + std::to_string(b.args.seed) +
                    ",\"traced\":" + (b.tracer.enabled() ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(b.attempted) +
                    ",\"failed\":" + std::to_string(b.failed) +
                    ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, mt] : b.metrics.all()) {
    out += (first ? "" : ",") + json_string(name) +
           ":{\"value\":" + json_number(mt.value) +
           ",\"unit\":" + json_string(mt.unit) +
           ",\"n\":" + std::to_string(mt.n) + "}";
    first = false;
  }
  out += "},\"meta\":{";
  first = true;
  for (const auto& [key, value] : b.meta) {
    out += (first ? "" : ",") + json_string(key) + ":" + value;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  const auto& all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return args.workload == w.name;
  });
  if (it == all.end()) {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  const Workload& wl = *it;
  set_num_threads(wl.threads);
  fs::create_directories(args.scratch);

  Bench b(wl, args);
  b.meta["model"] = json_string(wl.config.name);
  b.meta["variant"] = json_string(variant_name(wl.variant));
  b.meta["profile"] = json_string(make_params(wl.profile).name);
  b.meta["threads"] = std::to_string(num_threads());
  b.meta["crc32c"] = json_string(crc32c_impl_name());
  b.meta["ntt_kernel"] =
      json_string(HeContext(make_params(wl.profile)).kernel_name());
  b.meta["gc_kernel"] = json_string(gc_kernel_name());

  if (wl.mode == Mode::kSingleClient) {
    run_single_client(b);
  } else {
    ServeRun(b).run();
  }
  if (b.tracer.enabled()) {
    probe_he_ntt(b);
    probe_gc(b);
    const auto& m = b.metrics.all();
    probe_net(b, m.at("net.frames").value);
    b.tracer.write(args.trace_path, wl.name);
  }
  fs::remove_all(args.scratch);
  print_result(b);
  return b.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "primer_bench: %s\n", e.what());
    return 2;
  }
}
