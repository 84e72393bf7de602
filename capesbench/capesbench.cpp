// CAPES benchmark: runs one named workload as a closed-loop
// controller and writes raw measurements for run.py to turn into metrics.
//
//   capesbench --workload=NAME --seed=N --seconds=S --trace=0|1 --out=DIR
//   capesbench --selftest
//
// --trace=0 runs untraced episodes through the core::Experiment facade
// until S seconds have passed (at least four; the first only warms the
// process). Each episode builds a fresh experiment, sets up (warm-up
// plus, for training workloads, a replay-DB fill), then runs the
// workload's timed phases; the next sampling tick starts only when the
// previous one returned. Between ticks, outside the timed intervals, a
// fixed slice of reference work measures how fast the host runs right
// now (HostReference), so run.py can factor out a noisy shared host.
//
// --trace=1 alternates untraced facade episodes with traced episodes. A
// traced episode drives the same tick sequence CapesSystem runs (sim
// advance, agent sampling, status drain, reward, action, training) by
// hand through public entry points, with a span around every call, and
// must end with the same fingerprint and simulated MB/s as the facade.
// After the episodes it probes layers below the tick (nn kernels, replay
// minibatch assembly, pool dispatch, capture read and replay).
//
// Results go to DIR/raw.json and (traced) DIR/spans.csv. --selftest runs
// a small facade-vs-traced equivalence check and exits 0 when it holds.

#include <algorithm>
#include <array>
#include <cstdlib>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sched.h>
#include <memory>
#include <string>
#include <vector>

#include "capture/wire_log_reader.hpp"
#include "core/experiment.hpp"
#include "core/trace_replay.hpp"
#include "nn/adam.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"
#include "stats/changepoint.hpp"
#include "util/alloc_hook.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace capes;
using core::RunPhase;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct PhasePlan {
  RunPhase phase = RunPhase::kTraining;
  std::int64_t ticks = 0;
};

struct WorkloadPlan {
  std::string name;
  std::vector<std::string> specs;  ///< one workload spec per control domain
  std::size_t worker_threads = 0;
  std::size_t sim_shards = 1;      ///< 1 = serial loop, 0 = one per domain
  bool capture = false;
  std::int64_t fill_ticks = 0;     ///< training ticks run inside set-up
  std::vector<PhasePlan> timed;
};

/// Per-domain generator seed: a splitmix64 step over (seed, domain), kept
/// below 2^31 so every spec parser accepts it.
std::uint64_t domain_seed(std::uint64_t seed, std::size_t domain) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (domain + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) & 0x7fffffffULL;
}

std::string seeded(const std::string& spec, std::uint64_t seed) {
  const char sep = spec.find(':') == std::string::npos ? ':' : ',';
  return spec + sep + "seed=" + std::to_string(seed);
}

bool make_plan(const std::string& name, std::uint64_t seed, WorkloadPlan* out) {
  WorkloadPlan plan;
  plan.name = name;
  if (name == "train_8d_capture") {
    for (std::size_t d = 0; d < 8; ++d) {
      plan.specs.push_back(seeded("random:0.5", domain_seed(seed, d)));
    }
    plan.capture = true;
    plan.fill_ticks = 10;
    plan.timed = {{RunPhase::kTraining, 60}};
  } else if (name == "eval_32d_rw") {
    const char* mix[] = {"random:0.9", "random:0.5", "seqwrite",
                         "fileserver:instances=8,files=8"};
    for (std::size_t d = 0; d < 32; ++d) {
      plan.specs.push_back(seeded(mix[d % 4], domain_seed(seed, d)));
    }
    plan.timed = {{RunPhase::kBaseline, 50}, {RunPhase::kTuned, 50}};
  } else if (name == "pool_16d_skew") {
    for (std::size_t d = 0; d < 16; ++d) {
      plan.specs.push_back(seeded(d < 4 ? "random:0.0"
                                        : "fileserver:instances=4,files=4",
                                  domain_seed(seed, d)));
    }
    plan.worker_threads = 3;
    plan.sim_shards = 0;
    plan.fill_ticks = 10;
    plan.timed = {{RunPhase::kTraining, 60}, {RunPhase::kTuned, 20}};
  } else if (name == "selftest_serial" || name == "selftest_pool") {
    const bool pool = name == "selftest_pool";
    for (std::size_t d = 0; d < 3; ++d) {
      plan.specs.push_back(seeded(d == 2 ? "fileserver:instances=2,files=2"
                                         : "random:0.5",
                                  domain_seed(seed, d)));
    }
    plan.worker_threads = pool ? 2 : 0;
    plan.sim_shards = pool ? 0 : 1;
    plan.fill_ticks = 8;
    plan.timed = {{RunPhase::kTraining, 12},
                  {RunPhase::kBaseline, 6},
                  {RunPhase::kTuned, 6}};
  } else {
    return false;
  }
  *out = std::move(plan);
  return true;
}

std::int64_t timed_ticks(const WorkloadPlan& plan) {
  std::int64_t total = 0;
  for (const PhasePlan& p : plan.timed) total += p.ticks;
  return total;
}

/// Fixed reference work, independent of the code under test, timed next
/// to every untraced tick so run.py can express wall times at a nominal
/// host speed. On a shared host, neighbours slow single CPUs by up to 2x
/// for seconds at a time; the slice's own time moves with them. It mixes
/// the resources a tick uses: dependent loads over a 128 MiB ring (about
/// the simulator's working set, so it misses the cache as often), small
/// mallocs, and float math.
class HostReference {
 public:
  HostReference() : ring_(std::size_t{1} << 25), va_(4096, 0.5f), vb_(4096, 0.25f) {
    // Sattolo's shuffle: one cycle through every slot, so the walk never
    // settles into a short, cache-resident loop.
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      ring_[i] = static_cast<std::uint32_t>(i);
    }
    util::Rng rng(0x5eed);
    for (std::size_t i = ring_.size() - 1; i > 0; --i) {
      std::swap(ring_[i], ring_[rng.uniform_u64(i)]);
    }
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) {
      CPU_ZERO(&allowed_);
    }
  }

  /// Pin the calling thread to the allowed CPU where the slice runs
  /// fastest right now. It stays put unless another CPU is clearly
  /// faster: a move costs the next tick a cold L2. Only for
  /// single-threaded workloads: threads the caller starts afterwards
  /// inherit the pin.
  void settle() {
    const int current = sched_getcpu();
    int best = -1;
    double best_ms = 0.0;
    double current_ms = 0.0;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &allowed_) || !pin(c)) continue;
      const double ms = std::min(slice_ms(), slice_ms());
      if (c == current) current_ms = ms;
      if (best < 0 || ms < best_ms) {
        best = c;
        best_ms = ms;
      }
    }
    if (current >= 0 && current_ms > 0.0 && best_ms > 0.85 * current_ms) {
      best = current;
    }
    if (best >= 0) pin(best);
  }

  /// Undo settle(): the calling thread may run on every allowed CPU again.
  void release() {
    if (CPU_COUNT(&allowed_) > 0) {
      sched_setaffinity(0, sizeof(allowed_), &allowed_);
    }
  }

  /// Milliseconds one slice of reference work takes right now.
  double slice_ms() {
    const std::int64_t start = now_ns();
    for (int i = 0; i < 3000; ++i) cursor_ = ring_[cursor_];
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      blocks_[i] = std::malloc(32 + (i * 37) % 224);
    }
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      std::free(blocks_[(i * 97) % blocks_.size()]);
    }
    float dot = 0.0f;
    for (std::size_t r = 0; r < 16; ++r) {
      for (std::size_t i = 0; i < va_.size(); ++i) dot += va_[i] * vb_[i];
      va_[r] += dot * 1e-12f;
    }
    double chain = static_cast<double>(cursor_);
    for (int i = 0; i < 10000; ++i) chain = chain * 0.999999 + i * 1e-9;
    sink_ += chain + dot;
    return static_cast<double>(now_ns() - start) * 1e-6;
  }

 private:
  bool pin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }

  std::vector<std::uint32_t> ring_;
  std::vector<float> va_;
  std::vector<float> vb_;
  std::array<void*, 128> blocks_{};
  cpu_set_t allowed_;
  std::uint32_t cursor_ = 0;
  double sink_ = 0.0;
};

/// Ticks between two settle() calls of a single-threaded workload.
constexpr std::size_t kSettleEvery = 10;

/// Wall-clock tick log filled by the on_tick listener of untraced runs.
/// The reference slice (and, for single-threaded workloads, a settle()
/// every kSettleEvery ticks) runs after the tick is stamped and is left
/// out of the next tick's time.
struct TickLog {
  bool enabled = false;
  std::int64_t last_ns = 0;
  std::vector<double> tick_ms;
  std::vector<double> ref_ms;
  std::vector<std::uint8_t> tick_dropped;
  core::Experiment* exp = nullptr;
  HostReference* reference = nullptr;
  bool settle = false;
  std::uint64_t dropped_seen = 0;
};

std::unique_ptr<core::Experiment> build_experiment(const WorkloadPlan& plan,
                                                   std::uint64_t seed,
                                                   const std::string& capture,
                                                   TickLog* log) {
  auto builder = core::Experiment::builder()
                     .seed(seed)
                     .workload(plan.specs[0])
                     .worker_threads(plan.worker_threads)
                     .sim_shards(plan.sim_shards);
  for (std::size_t d = 1; d < plan.specs.size(); ++d) {
    builder.add_cluster(plan.specs[d]);
  }
  if (plan.capture) builder.capture(capture);
  if (log != nullptr) {
    builder.on_tick([log](const core::TickEvent&) {
      if (!log->enabled) return;
      const std::int64_t t = now_ns();
      log->tick_ms.push_back(static_cast<double>(t - log->last_ns) * 1e-6);
      // A tick fails when the control network dropped one of its
      // messages (the sync transport never does).
      const std::uint64_t dropped =
          log->exp->system().interface_daemon().bus_stats().dropped;
      log->tick_dropped.push_back(dropped != log->dropped_seen ? 1 : 0);
      log->dropped_seen = dropped;
      if (log->settle && log->tick_ms.size() % kSettleEvery == 1) {
        log->reference->settle();
      }
      log->ref_ms.push_back(log->reference->slice_ms());
      log->last_ns = now_ns();
    });
  }
  std::string error;
  auto exp = builder.build(&error);
  if (!exp) std::fprintf(stderr, "experiment build failed: %s\n", error.c_str());
  return exp;
}

// ---------------------------------------------------------------------------
// Episode records
// ---------------------------------------------------------------------------

struct PhaseOut {
  std::string label;
  std::int64_t ticks = 0;
  double mean_mbs = 0.0;
  std::uint64_t dropped = 0;
  std::size_t train_steps = 0;
  std::size_t regime_shifts = 0;
};

struct EpisodeOut {
  bool traced = false;
  double setup_s = 0.0;
  std::int64_t ticks = 0;
  std::vector<double> tick_ms;
  std::vector<std::uint8_t> tick_dropped;
  std::vector<double> ref_ms;
  std::uint32_t fingerprint = 0;
  std::size_t train_steps = 0;
  std::vector<PhaseOut> phases;
  std::vector<double> final_params;
  double tuned_gain_pct = 0.0;
  std::uint64_t hot_path_allocs = 0;
  // Flight recorder (capture workloads only).
  std::uint64_t capture_records = 0;
  std::uint64_t capture_bytes = 0;
  std::uint64_t capture_dropped = 0;
  std::int64_t captured_ticks = 0;
  // Traced-loop counters, summed over timed ticks.
  std::uint64_t events = 0;
  std::uint64_t sim_allocs = 0;
  double barrier_wait_ns = 0.0;
  double shard_max_events = 0.0;
  double shard_mean_events = 0.0;
  std::uint64_t pi_bytes = 0;
};

double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

PhaseOut phase_out(const core::PhaseReport& report) {
  PhaseOut out;
  out.label = report.label;
  out.ticks = report.result.end_tick - report.result.start_tick;
  out.mean_mbs = mean_of(report.result.throughput.samples());
  out.dropped = report.result.messages_dropped;
  out.train_steps = report.result.train_steps;
  out.regime_shifts = report.result.regime_shifts;
  return out;
}

double tuned_gain(const std::vector<PhaseOut>& phases) {
  double baseline = 0.0;
  double tuned = 0.0;
  for (const PhaseOut& p : phases) {
    if (p.label == "baseline") baseline = p.mean_mbs;
    if (p.label == "tuned") tuned = p.mean_mbs;
  }
  return baseline > 0.0 && tuned > 0.0 ? (tuned / baseline - 1.0) * 100.0 : 0.0;
}

void close_capture(core::Experiment& exp, EpisodeOut* out) {
  capture::WireLogWriter* writer = exp.system().capture_writer();
  if (writer == nullptr) return;
  writer->close();
  out->capture_records = writer->records_logged();
  out->capture_bytes = writer->bytes_written();
  out->capture_dropped = writer->records_dropped();
}

/// An untraced episode's experiment, kept so the caller can probe its
/// layers. The experiment is declared last, so it (and the tick listener
/// pointing at `log`) goes first.
struct UntracedRun {
  std::unique_ptr<TickLog> log;
  std::unique_ptr<core::Experiment> exp;
};

/// One untraced episode through the facade; a null exp on failure.
UntracedRun run_untraced(const WorkloadPlan& plan, std::uint64_t seed,
                         const std::string& capture, HostReference& reference,
                         EpisodeOut* out) {
  UntracedRun run;
  run.log = std::make_unique<TickLog>();
  TickLog* log = run.log.get();
  log->reference = &reference;
  log->settle = plan.worker_threads == 0;
  // Threads the experiment starts (capture writer, pool) must not inherit
  // a pin left over from an earlier episode.
  reference.release();
  log->tick_ms.reserve(static_cast<std::size_t>(timed_ticks(plan)));
  log->tick_dropped.reserve(static_cast<std::size_t>(timed_ticks(plan)));
  log->ref_ms.reserve(static_cast<std::size_t>(timed_ticks(plan)));
  const std::int64_t start = now_ns();
  run.exp = build_experiment(plan, seed, capture, log);
  if (!run.exp) return run;
  // settle() is benchmark work: it stays out of the set-up time.
  std::int64_t settle_ns = 0;
  if (log->settle) {
    const std::int64_t t0 = now_ns();
    reference.settle();
    settle_ns = now_ns() - t0;
  }
  core::Experiment* exp = run.exp.get();
  log->exp = exp;
  if (plan.fill_ticks > 0) {
    exp->run_training(plan.fill_ticks);
  } else {
    exp->ensure_warmed_up();
  }
  log->dropped_seen = exp->system().interface_daemon().bus_stats().dropped;
  const std::uint64_t hot_before = exp->system().hot_path_allocations();
  const std::int64_t setup_end = now_ns();
  log->last_ns = setup_end;
  log->enabled = true;
  for (const PhasePlan& p : plan.timed) {
    core::PhaseReport report;
    switch (p.phase) {
      case RunPhase::kTraining: report = exp->run_training(p.ticks); break;
      case RunPhase::kBaseline: report = exp->run_baseline(p.ticks); break;
      default: report = exp->run_tuned(p.ticks); break;
    }
    out->phases.push_back(phase_out(report));
  }
  log->enabled = false;
  out->setup_s = static_cast<double>(setup_end - start - settle_ns) * 1e-9;
  out->ticks = timed_ticks(plan);
  out->tick_ms = std::move(log->tick_ms);
  out->tick_dropped = std::move(log->tick_dropped);
  out->ref_ms = std::move(log->ref_ms);
  out->hot_path_allocs = exp->system().hot_path_allocations() - hot_before;
  out->fingerprint = exp->system().training_fingerprint();
  out->train_steps = exp->system().total_train_steps();
  out->final_params = exp->parameter_values();
  out->tuned_gain_pct = tuned_gain(out->phases);
  out->captured_ticks = plan.fill_ticks + out->ticks;
  close_capture(*exp, out);
  return run;
}

// ---------------------------------------------------------------------------
// Traced episodes
// ---------------------------------------------------------------------------

/// In-memory span store: name, parent span, tick id, start and end.
/// Spans are appended in start order and written out after the run.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int32_t parent;
    std::int32_t episode;
    std::int64_t tick;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  bool enabled = false;
  std::int32_t episode = 0;

  std::int32_t begin(const char* name, std::int32_t parent, std::int64_t tick) {
    if (!enabled) return -1;
    spans_.push_back({name, parent, episode, tick, now_ns(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  void reserve(std::size_t n) { spans_.reserve(n); }

  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,parent,episode,tick,name,start_ns,end_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%d,%d,%" PRId64 ",%s,%" PRId64 ",%" PRId64 "\n", i,
                   s.parent, s.episode, s.tick, s.name, s.start_ns, s.end_ns);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

/// Scoped child span of the current tick.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::int32_t parent,
            std::int64_t tick)
      : tracer_(tracer), id_(tracer.begin(name, parent, tick)) {}
  ~SpanScope() { tracer_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Hand-driven copy of CapesSystem's phase and sampling-tick sequence,
/// built only from public entry points, with spans around each layer
/// call. Valid for in-process brains without fault injection or a rate
/// shard plan (what every benchmark workload uses).
class TracedLoop {
 public:
  /// `reference` (may be null) re-pins the control thread every
  /// kSettleEvery ticks, as untraced single-threaded runs do.
  TracedLoop(core::Experiment& exp, Tracer& tracer, HostReference* reference,
             EpisodeOut& out)
      : exp_(exp), sys_(exp.system()), tracer_(tracer), reference_(reference),
        out_(out) {
    for (const auto& domain : sys_.domains()) {
      for (const auto& agent : domain->monitoring_agents()) {
        agents_.push_back(agent.get());
      }
    }
    perf_.resize(sys_.num_domains());
    reward_.resize(sys_.num_domains());
    tick_us_ = sim::seconds(exp.preset().capes.sampling_tick_s);
  }

  PhaseOut run_phase(RunPhase mode, std::int64_t ticks) {
    if (mode == RunPhase::kBaseline) sys_.reset_parameters();
    capture::WireLogWriter* capture = sys_.capture_writer();
    const std::uint8_t phase_byte = static_cast<std::uint8_t>(mode);
    if (capture != nullptr) {
      capture->record(capture::RecordType::kPhaseBegin, tick_, 0, 0,
                      &phase_byte, 1);
    }
    const std::uint64_t dropped_before =
        sys_.interface_daemon().bus_stats().dropped;
    throughput_.clear();
    std::size_t steps = 0;
    for (std::int64_t i = 0; i < ticks; ++i) steps += tick(mode);
    sys_.engine().drain_learner();
    if (capture != nullptr) {
      capture->record(capture::RecordType::kPhaseEnd, tick_, 0, 0,
                      &phase_byte, 1);
    }
    PhaseOut out;
    {
      SpanScope span(tracer_, "stats.changepoint", -1, tick_);
      out.regime_shifts = stats::pelt_mean_shift(throughput_).size();
    }
    out.label = core::phase_name(mode);
    out.ticks = ticks;
    out.mean_mbs = mean_of(throughput_);
    out.dropped = sys_.interface_daemon().bus_stats().dropped - dropped_before;
    out.train_steps = steps;
    return out;
  }

 private:
  std::size_t tick(RunPhase mode) {
    const std::int64_t t = tick_;
    if (reference_ != nullptr && t % kSettleEvery == 1) reference_->settle();
    util::ThreadPool* pool = sys_.worker_pool();
    sim::Simulator& sim = exp_.simulator();
    core::InterfaceDaemon& daemon = sys_.interface_daemon();
    core::DrlEngine& engine = sys_.engine();
    const std::int32_t root = tracer_.begin("tick", -1, t);
    const bool count = tracer_.enabled;

    {
      SpanScope span(tracer_, "sim.advance", root, t);
      util::AllocTally allocs;
      const std::size_t events = sim.run_for(tick_us_, pool);
      if (count) {
        out_.sim_allocs += allocs.delta();
        out_.events += events;
      }
    }
    if (count && sim.num_shards() > 1) {
      const auto& events = sim.last_advance_events();
      const auto& busy = sim.last_advance_busy_ns();
      std::uint64_t max_busy = 0;
      std::size_t max_events = 0;
      std::size_t sum_events = 0;
      for (std::size_t i = 0; i < events.size(); ++i) {
        max_busy = std::max(max_busy, busy[i]);
        max_events = std::max(max_events, events[i]);
        sum_events += events[i];
      }
      double wait = 0.0;
      for (const std::uint64_t b : busy) wait += static_cast<double>(max_busy - b);
      out_.barrier_wait_ns += wait / static_cast<double>(busy.size());
      out_.shard_max_events += static_cast<double>(max_events);
      out_.shard_mean_events +=
          static_cast<double>(sum_events) / static_cast<double>(events.size());
    }

    const std::uint64_t bytes_before = sys_.monitoring_bytes_sent();
    {
      SpanScope span(tracer_, "core.monitor", root, t);
      if (pool == nullptr) {
        for (core::MonitoringAgent* agent : agents_) agent->sample(t);
      } else {
        pool->parallel_for(agents_.size(),
                           [&](std::size_t i) { agents_[i]->sample(t); });
      }
    }
    if (count) out_.pi_bytes += sys_.monitoring_bytes_sent() - bytes_before;
    {
      SpanScope span(tracer_, "core.drain_status", root, t);
      daemon.drain_status(t, pool);
    }

    double throughput = 0.0;
    double reward = 0.0;
    double latency = 0.0;
    {
      SpanScope span(tracer_, "lustre.sample", root, t);
      auto sample = [&](std::size_t d) {
        core::ControlDomain& domain = sys_.domain(d);
        const auto binding = domain.bind_sim_shard();
        perf_[d] = domain.adapter().sample_performance();
        reward_[d] = domain.objective()(perf_[d]);
      };
      const std::size_t n = sys_.num_domains();
      if (pool != nullptr && n > 1) {
        pool->parallel_for(n, sample);
      } else {
        for (std::size_t d = 0; d < n; ++d) sample(d);
      }
      for (std::size_t d = 0; d < n; ++d) {
        sys_.domain(d).set_last_sample(perf_[d], reward_[d]);
        throughput += perf_[d].throughput_mbs();
        latency += perf_[d].avg_latency_ms;
        reward += reward_[d];
      }
      reward /= static_cast<double>(n);
      latency /= static_cast<double>(n);
    }
    {
      SpanScope span(tracer_, "core.reward", root, t);
      daemon.on_reward(t, reward);
      if (capture::WireLogWriter* capture = sys_.capture_writer()) {
        const double values[3] = {reward, throughput, latency};
        capture->record_f64s(capture::RecordType::kReward, t, 0, 0, values, 3);
      }
    }
    throughput_.push_back(throughput);

    std::size_t suggested = 0;
    if (mode == RunPhase::kTraining || mode == RunPhase::kTuned) {
      SpanScope span(tracer_, "rl.compute_action", root, t);
      suggested = engine.compute_action(t, mode == RunPhase::kTraining, pool);
    }
    {
      SpanScope span(tracer_, "core.route", root, t);
      daemon.route_suggested_action(t, suggested);
      daemon.drain_actions(t);
    }
    std::size_t steps = 0;
    if (mode == RunPhase::kTraining) {
      SpanScope span(tracer_, "rl.train_tick", root, t);
      steps = engine.train_tick(pool);
    }
    tracer_.end(root);
    ++tick_;
    return steps;
  }

  core::Experiment& exp_;
  core::CapesSystem& sys_;
  Tracer& tracer_;
  HostReference* reference_;
  EpisodeOut& out_;
  std::vector<core::MonitoringAgent*> agents_;
  std::vector<core::PerfSample> perf_;
  std::vector<double> reward_;
  std::vector<double> throughput_;
  sim::TimeUs tick_us_ = 0;
  std::int64_t tick_ = 0;
};

bool run_traced(const WorkloadPlan& plan, std::uint64_t seed,
                const std::string& capture, HostReference& reference,
                Tracer& tracer, EpisodeOut* out) {
  out->traced = true;
  reference.release();
  const std::int64_t start = now_ns();
  auto exp = build_experiment(plan, seed, capture, nullptr);
  if (!exp) return false;
  if (plan.worker_threads == 0) reference.settle();
  exp->ensure_warmed_up();
  TracedLoop loop(*exp, tracer,
                  plan.worker_threads == 0 ? &reference : nullptr, *out);
  tracer.enabled = false;
  if (plan.fill_ticks > 0) loop.run_phase(RunPhase::kTraining, plan.fill_ticks);
  const std::int64_t setup_end = now_ns();
  tracer.enabled = true;
  for (const PhasePlan& p : plan.timed) {
    out->phases.push_back(loop.run_phase(p.phase, p.ticks));
  }
  tracer.enabled = false;
  out->setup_s = static_cast<double>(setup_end - start) * 1e-9;
  out->ticks = timed_ticks(plan);
  out->fingerprint = exp->system().training_fingerprint();
  out->train_steps = exp->system().total_train_steps();
  out->final_params = exp->parameter_values();
  out->tuned_gain_pct = tuned_gain(out->phases);
  out->captured_ticks = plan.fill_ticks + out->ticks;
  close_capture(*exp, out);
  return true;
}

// ---------------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------------

struct Probes {
  double minibatch_us = 0.0;
  double forward_us = 0.0;
  double backward_us = 0.0;
  double adam_step_us = 0.0;
  double soft_update_us = 0.0;
  double matmul_nt_gflops = 0.0;
  double matmul_nn_gflops = 0.0;
  double matmul_tn_gflops = 0.0;
  double flops_per_train_step = 0.0;
  double pool_dispatch_us = 0.0;
  std::string shapes;
};

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Median microseconds per call of `fn`, over at least `min_reps` calls
/// and at most ~`budget_s` seconds.
template <typename F>
double time_us(F&& fn, int min_reps = 15, double budget_s = 0.15) {
  fn();  // warm caches and scratch buffers
  std::vector<double> us;
  const std::int64_t start = now_ns();
  while (static_cast<int>(us.size()) < min_reps ||
         (seconds_since(start) < budget_s && us.size() < 2000)) {
    const std::int64_t t0 = now_ns();
    fn();
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(us);
}

void fill_random(nn::Matrix& m, util::Rng& rng, double scale) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-scale, scale));
  }
}

Probes probe_layers(core::Experiment& exp, std::uint64_t seed) {
  Probes out;
  core::CapesSystem& sys = exp.system();
  core::DrlEngine& engine = sys.engine();
  util::ThreadPool* pool = sys.worker_pool();
  util::Rng rng(seed ^ 0xbe7c4b3aULL);
  const std::size_t batch = engine.options().minibatch_size;

  {
    rl::Minibatch mb;
    util::Rng sampler(seed);
    if (sys.replay().construct_minibatch_into(mb, batch, sampler, 64, pool)) {
      out.minibatch_us = time_us([&] {
        sys.replay().construct_minibatch_into(mb, batch, sampler, 64, pool);
      });
    }
  }

  // Kernels at the workload's own DQN shapes, on clones so the engine's
  // weights (and so the run's fingerprint) are never touched.
  const nn::Mlp& online = engine.dqn().online_network();
  auto net = online.clone();
  auto target = online.clone();
  const std::vector<std::size_t>& sizes = net->layer_sizes();
  nn::Matrix x(batch, sizes.front());
  nn::Matrix grad(batch, sizes.back());
  fill_random(x, rng, 1.0);
  fill_random(grad, rng, 0.01);
  out.forward_us = time_us([&] { net->forward(x, pool); });
  out.backward_us = time_us([&] {
    net->zero_grad();
    net->forward(x, pool);
    net->backward(grad, pool);
  }) - out.forward_us;
  nn::Adam::Options adam_opts;
  adam_opts.learning_rate = engine.dqn().options().learning_rate;
  nn::Adam adam(net->parameters(), adam_opts);
  out.adam_step_us = time_us([&] { adam.step(); });
  const float alpha = engine.dqn().options().target_update_alpha;
  out.soft_update_us = time_us([&] { target->soft_update_from(*net, alpha); });

  double forward_flops = 0.0;
  std::vector<nn::Matrix> acts, weights, grads;
  for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
    forward_flops += 2.0 * static_cast<double>(batch * sizes[l] * sizes[l + 1]);
    acts.emplace_back(batch, sizes[l]);
    weights.emplace_back(sizes[l + 1], sizes[l]);
    grads.emplace_back(batch, sizes[l + 1]);
    fill_random(acts.back(), rng, 1.0);
    fill_random(weights.back(), rng, 0.1);
    fill_random(grads.back(), rng, 0.01);
    if (!out.shapes.empty()) out.shapes += ',';
    out.shapes += std::to_string(sizes[l]) + "x" + std::to_string(sizes[l + 1]);
  }
  nn::Matrix c;
  // Each kernel does forward_flops over one pass of every layer shape.
  auto gflops = [&](auto&& kernel) {
    const double us = time_us([&] {
      for (std::size_t l = 0; l < acts.size(); ++l) kernel(l);
    });
    return us > 0.0 ? forward_flops / (us * 1e3) : 0.0;
  };
  // Dense forward is X * W^T, backward is G^T * X (dW) and G * W (dX).
  out.matmul_nt_gflops =
      gflops([&](std::size_t l) { nn::matmul_nt(acts[l], weights[l], c, pool); });
  out.matmul_tn_gflops =
      gflops([&](std::size_t l) { nn::matmul_tn(grads[l], acts[l], c, pool); });
  out.matmul_nn_gflops =
      gflops([&](std::size_t l) { nn::matmul_nn(grads[l], weights[l], c, pool); });
  // One DQN step: a bootstrap forward on s', Double DQN's online forward
  // on s', the online forward on s, and a backward of two GEMMs a layer.
  const rl::DqnOptions& dqn = engine.dqn().options();
  const double forwards =
      2.0 + (dqn.use_double_dqn && dqn.use_target_network ? 1.0 : 0.0);
  out.flops_per_train_step = (forwards + 2.0) * forward_flops;

  const std::size_t n = sys.num_domains();
  std::unique_ptr<util::ThreadPool> own_pool;
  if (pool == nullptr) {
    own_pool = std::make_unique<util::ThreadPool>(3);
    pool = own_pool.get();
  }
  out.pool_dispatch_us =
      time_us([&] { pool->parallel_for(n, [](std::size_t) {}); }, 50);
  return out;
}

struct CaptureProbe {
  bool ran = false;
  double read_s = 0.0;
  std::uint64_t records_read = 0;
  double replay_s = 0.0;
  std::uint64_t replay_ticks = 0;
  std::uint32_t replay_fingerprint = 0;
  std::size_t replay_train_steps = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t action_mismatches = 0;
  std::uint64_t dropped_records = 0;
  bool fresh_weights_match = false;
  std::string error;
};

/// Walk the capture with WireLogReader, then retrain it with
/// TraceReplayer at max speed.
CaptureProbe probe_capture(const std::string& path) {
  CaptureProbe out;
  out.ran = true;
  {
    capture::WireLogReader reader;
    const std::int64_t start = now_ns();
    if (!reader.open(path, &out.error)) return out;
    capture::WireRecord record;
    while (reader.next(&record)) ++out.records_read;
    out.read_s = seconds_since(start);
    out.dropped_records = reader.stats().dropped_records;
  }
  core::TraceReplayer replayer;
  core::TraceReplayOptions opts;
  opts.speed = core::ReplaySpeed::kMax;
  if (!replayer.open(path, opts, &out.error)) return out;
  out.fresh_weights_match = replayer.fresh_weights_match();
  const std::int64_t start = now_ns();
  const core::TraceReplayReport report = replayer.run();
  out.replay_s = seconds_since(start);
  out.replay_ticks = report.reward_records;
  out.replay_fingerprint = report.weights_fingerprint;
  out.replay_train_steps = report.total_train_steps;
  out.decode_errors = report.decode_errors;
  out.action_mismatches = report.action_mismatches;
  return out;
}

/// A field of /proc/self/status in MiB (VmRSS, VmHWM), 0 if unreadable.
double status_mb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Raw output
// ---------------------------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// `text` as a JSON string literal.
std::string quoted(const std::string& text) {
  std::string s = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      s += '\\';
      s += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      s += ' ';
    } else {
      s += ch;
    }
  }
  return s + "\"";
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "\"%08x\"", v);
  return buf;
}

template <typename T>
std::string array(const std::vector<T>& xs) {
  std::string s = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) s += ',';
    s += num(static_cast<double>(xs[i]));
  }
  return s + "]";
}

/// Builds one JSON object, a field at a time.
class JsonObject {
 public:
  /// `json` is already encoded (a number, literal, array or object).
  JsonObject& raw(const char* key, const std::string& json) {
    if (body_.size() > 1) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  JsonObject& add(const char* key, double v) { return raw(key, num(v)); }
  JsonObject& add(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  JsonObject& add(const char* key, const std::string& v) {
    return raw(key, quoted(v));
  }
  std::string str() const { return body_ + "}"; }

 private:
  std::string body_ = "{";
};

std::string episode_json(const EpisodeOut& e) {
  std::string phases = "[";
  for (const PhaseOut& p : e.phases) {
    if (phases.size() > 1) phases += ',';
    phases += JsonObject()
                  .add("label", p.label)
                  .add("ticks", static_cast<double>(p.ticks))
                  .add("mean_mbs", p.mean_mbs)
                  .add("dropped", static_cast<double>(p.dropped))
                  .add("train_steps", static_cast<double>(p.train_steps))
                  .add("regime_shifts", static_cast<double>(p.regime_shifts))
                  .str();
  }
  return JsonObject()
      .add("traced", e.traced)
      .add("setup_s", e.setup_s)
      .add("ticks", static_cast<double>(e.ticks))
      .raw("tick_ms", array(e.tick_ms))
      .raw("tick_dropped", array(e.tick_dropped))
      .raw("ref_ms", array(e.ref_ms))
      .raw("fingerprint", hex32(e.fingerprint))
      .add("train_steps", static_cast<double>(e.train_steps))
      .raw("phases", phases + "]")
      .raw("final_params", array(e.final_params))
      .add("tuned_gain_pct", e.tuned_gain_pct)
      .add("hot_path_allocs", static_cast<double>(e.hot_path_allocs))
      .add("capture_records", static_cast<double>(e.capture_records))
      .add("capture_bytes", static_cast<double>(e.capture_bytes))
      .add("capture_dropped", static_cast<double>(e.capture_dropped))
      .add("captured_ticks", static_cast<double>(e.captured_ticks))
      .add("events", static_cast<double>(e.events))
      .add("sim_allocs", static_cast<double>(e.sim_allocs))
      .add("barrier_wait_ns", e.barrier_wait_ns)
      .add("shard_max_events", e.shard_max_events)
      .add("shard_mean_events", e.shard_mean_events)
      .add("pi_bytes", static_cast<double>(e.pi_bytes))
      .str();
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out = ".";
  bool selftest = false;
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--selftest") == 0) {
      args->selftest = true;
    } else if (util::parse_flag(argv[i], "--workload", &value)) {
      args->workload = value;
    } else if (util::parse_flag(argv[i], "--seed", &value)) {
      if (!util::parse_u64(value, &args->seed)) return false;
    } else if (util::parse_flag(argv[i], "--seconds", &value)) {
      if (!util::parse_double(value, &args->seconds) || args->seconds <= 0.0) {
        return false;
      }
    } else if (util::parse_flag(argv[i], "--trace", &value)) {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (util::parse_flag(argv[i], "--out", &value)) {
      args->out = value;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
  }
  return args->selftest || !args->workload.empty();
}

bool same_results(const EpisodeOut& a, const EpisodeOut& b) {
  if (a.fingerprint != b.fingerprint || a.final_params != b.final_params ||
      a.phases.size() != b.phases.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    if (a.phases[i].mean_mbs != b.phases[i].mean_mbs ||
        a.phases[i].train_steps != b.phases[i].train_steps ||
        a.phases[i].regime_shifts != b.phases[i].regime_shifts) {
      return false;
    }
  }
  return true;
}

/// Small-config equivalence check: the hand-driven traced loop must end
/// with the facade's fingerprint, parameters and per-phase MB/s, serial
/// and pooled.
int selftest(const std::string& dir) {
  HostReference reference;
  int failures = 0;
  for (const char* name : {"selftest_serial", "selftest_pool"}) {
    WorkloadPlan plan;
    make_plan(name, 7, &plan);
    EpisodeOut facade;
    EpisodeOut traced;
    Tracer tracer;
    const bool ok = run_untraced(plan, 7, dir + "/selftest_a.cap", reference,
                                 &facade).exp != nullptr &&
                    run_traced(plan, 7, dir + "/selftest_b.cap", reference, tracer,
                               &traced);
    const bool same = ok && same_results(facade, traced);
    std::printf("%s: facade %08x, traced %08x, %zu train steps: %s\n", name,
                facade.fingerprint, traced.fingerprint, facade.train_steps,
                same ? "equal" : "DIFFERENT");
    if (!same) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: capesbench --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1 --out=DIR | --selftest\n");
    return 2;
  }
  if (args.selftest) return selftest(args.out);

  WorkloadPlan plan;
  if (!make_plan(args.workload, args.seed, &plan)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string capture_a = args.out + "/episode_a.cap";
  const std::string capture_b = args.out + "/episode_b.cap";

  const double rss_before = status_mb("VmRSS");
  HostReference reference;
  const double reference_mb = status_mb("VmRSS") - rss_before;
  // Peak RSS of a fresh process through its first episode, without the
  // reference ring. Later episodes inherit heap arenas whose
  // fragmentation varies from run to run.
  double peak_rss_mb = 0.0;

  std::vector<EpisodeOut> episodes;
  Tracer tracer;
  tracer.reserve(std::size_t{1} << 16);
  Probes probes;
  bool probed = false;
  CaptureProbe capture_probe;
  const std::int64_t start = now_ns();
  // The first episode warms the process (page faults, allocator pools)
  // and is left out of the timings. Untraced runs then time at least
  // three more; traced runs alternate untraced and traced episodes, so
  // the overhead compares medians from the same stretch of time.
  const std::size_t min_episodes = args.trace == 1 ? 5 : 4;
  while (episodes.size() < min_episodes || seconds_since(start) < args.seconds) {
    const bool traced = args.trace == 1 && episodes.size() % 2 == 1;
    EpisodeOut ep;
    if (traced) {
      tracer.episode = static_cast<std::int32_t>(episodes.size());
      if (!run_traced(plan, args.seed, capture_b, reference, tracer, &ep)) {
        return 1;
      }
    } else {
      UntracedRun run = run_untraced(plan, args.seed, capture_a, reference, &ep);
      if (!run.exp) return 1;
      if (episodes.empty()) peak_rss_mb = status_mb("VmHWM") - reference_mb;
      reference.release();  // probe threads must not inherit a pin
      if (args.trace == 1 && !probed) {
        probes = probe_layers(*run.exp, args.seed);
        probed = true;
      }
      run.exp.reset();
      // The first untraced capture is replayed and then dropped; later
      // episodes reuse its file name.
      if (plan.capture && !capture_probe.ran) {
        capture_probe = probe_capture(capture_a);
      }
    }
    episodes.push_back(std::move(ep));
  }
  std::remove(capture_a.c_str());
  std::remove(capture_b.c_str());

  const std::string raw_path = args.out + "/raw.json";
  std::FILE* f = std::fopen(raw_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", raw_path.c_str());
    return 1;
  }
  std::string episodes_json = "[";
  for (const EpisodeOut& e : episodes) {
    if (episodes_json.size() > 1) episodes_json += ',';
    episodes_json += episode_json(e);
  }
  JsonObject out;
  out.add("workload", plan.name)
      .add("seed", static_cast<double>(args.seed))
      .add("trace", static_cast<double>(args.trace))
      .add("domains", static_cast<double>(plan.specs.size()))
      .add("peak_rss_mb", peak_rss_mb)
      .raw("episodes", episodes_json + "]");
  if (probed) {
    out.raw("probes", JsonObject()
                          .add("minibatch_us", probes.minibatch_us)
                          .add("forward_us", probes.forward_us)
                          .add("backward_us", probes.backward_us)
                          .add("adam_step_us", probes.adam_step_us)
                          .add("soft_update_us", probes.soft_update_us)
                          .add("matmul_nt_gflops", probes.matmul_nt_gflops)
                          .add("matmul_nn_gflops", probes.matmul_nn_gflops)
                          .add("matmul_tn_gflops", probes.matmul_tn_gflops)
                          .add("flops_per_train_step", probes.flops_per_train_step)
                          .add("pool_dispatch_us", probes.pool_dispatch_us)
                          .add("shapes", probes.shapes)
                          .str());
  }
  if (capture_probe.ran) {
    const CaptureProbe& c = capture_probe;
    out.raw("capture",
            JsonObject()
                .add("error", c.error)
                .add("read_s", c.read_s)
                .add("records_read", static_cast<double>(c.records_read))
                .add("replay_s", c.replay_s)
                .add("replay_ticks", static_cast<double>(c.replay_ticks))
                .raw("replay_fingerprint", hex32(c.replay_fingerprint))
                .add("replay_train_steps", static_cast<double>(c.replay_train_steps))
                .add("decode_errors", static_cast<double>(c.decode_errors))
                .add("action_mismatches", static_cast<double>(c.action_mismatches))
                .add("dropped_records", static_cast<double>(c.dropped_records))
                .add("fresh_weights_match", c.fresh_weights_match)
                .str());
  }
  const std::string s = out.str() + "\n";
  const bool wrote = std::fputs(s.c_str(), f) >= 0;
  if (std::fclose(f) != 0 || !wrote) {
    std::fprintf(stderr, "cannot write %s\n", raw_path.c_str());
    return 1;
  }
  if (args.trace == 1 && !tracer.write_csv(args.out + "/spans.csv")) {
    std::fprintf(stderr, "cannot write %s/spans.csv\n", args.out.c_str());
    return 1;
  }
  return 0;
}
