// The option table (core/options.hpp): the conf overlay and its
// emission, the shared command-line parser, the generated usage text and
// the generated tables in docs/CONFIG.md.

#include "core/options.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "core/experiment.hpp"

namespace capes::core {
namespace {

// The conf-overlay entry points the ConfigIo tests were written against,
// as thin wrappers over apply_conf / emit_conf.
CapesOptions capes_options_from_config(const util::Config& cfg,
                                       CapesOptions base = {}) {
  EvaluationPreset preset;
  preset.capes = std::move(base);
  std::string error;
  EXPECT_TRUE(apply_conf(cfg, &preset, &error)) << error;
  return preset.capes;
}

lustre::ClusterOptions cluster_options_from_config(const util::Config& cfg) {
  EvaluationPreset preset;
  std::string error;
  EXPECT_TRUE(apply_conf(cfg, &preset, &error)) << error;
  return preset.cluster;
}

util::Config config_from_options(const CapesOptions& capes,
                                 const lustre::ClusterOptions& cluster) {
  EvaluationPreset preset;
  preset.capes = capes;
  preset.cluster = cluster;
  return emit_conf(preset);
}

TEST(ConfigIo, EmptyConfigKeepsDefaults) {
  util::Config cfg;
  const CapesOptions o = capes_options_from_config(cfg);
  const CapesOptions d;
  EXPECT_DOUBLE_EQ(o.sampling_tick_s, d.sampling_tick_s);
  EXPECT_EQ(o.engine.minibatch_size, d.engine.minibatch_size);
  EXPECT_FLOAT_EQ(o.engine.dqn.gamma, d.engine.dqn.gamma);
}

TEST(ConfigIo, CapesKeysApplied) {
  util::Config cfg;
  ASSERT_TRUE(cfg.parse_string(R"(
capes.sampling_tick_s = 0.5
capes.reward_scale_mbs = 150
drl.minibatch_size = 64
drl.gamma = 0.9
drl.learning_rate = 0.001
drl.epsilon_anneal_ticks = 1234
drl.use_target_network = false
replay.ticks_per_observation = 7
replay.missing_tolerance = 0.3
)"));
  const CapesOptions o = capes_options_from_config(cfg);
  EXPECT_DOUBLE_EQ(o.sampling_tick_s, 0.5);
  EXPECT_DOUBLE_EQ(o.reward_scale_mbs, 150.0);
  EXPECT_EQ(o.engine.minibatch_size, 64u);
  EXPECT_FLOAT_EQ(o.engine.dqn.gamma, 0.9f);
  EXPECT_FLOAT_EQ(o.engine.dqn.learning_rate, 1e-3f);
  EXPECT_EQ(o.engine.epsilon.anneal_ticks, 1234);
  EXPECT_FALSE(o.engine.dqn.use_target_network);
  EXPECT_EQ(o.replay.ticks_per_observation, 7u);
  EXPECT_DOUBLE_EQ(o.replay.missing_tolerance, 0.3);
}

TEST(ConfigIo, ClusterKeysApplied) {
  util::Config cfg;
  ASSERT_TRUE(cfg.parse_string(R"(
lustre.num_clients = 3
lustre.num_servers = 2
lustre.default_cwnd = 16
lustre.fragmentation = 0.25
disk.seq_write_mbs = 90
disk.write_queue_gain = 1.5
network.fabric_bandwidth_mbs = 250
network.base_latency_us = 500
)"));
  const auto o = cluster_options_from_config(cfg);
  EXPECT_EQ(o.num_clients, 3u);
  EXPECT_EQ(o.num_servers, 2u);
  EXPECT_DOUBLE_EQ(o.default_cwnd, 16.0);
  EXPECT_DOUBLE_EQ(o.fragmentation, 0.25);
  EXPECT_DOUBLE_EQ(o.disk.seq_write_mbs, 90.0);
  EXPECT_DOUBLE_EQ(o.disk.write_queue_gain, 1.5);
  EXPECT_DOUBLE_EQ(o.network.fabric_bandwidth_mbs, 250.0);
  EXPECT_EQ(o.network.base_latency, 500);
}

TEST(ConfigIo, TransportKeysApplied) {
  util::Config cfg;
  ASSERT_TRUE(cfg.parse_string(R"(
capes.transport = sim
capes.transport.latency_ticks = 3
capes.transport.jitter = 2.5
capes.transport.drop = 0.1
capes.transport.seed = 77
)"));
  const CapesOptions o = capes_options_from_config(cfg);
  EXPECT_EQ(o.transport.kind, bus::TransportKind::kSim);
  EXPECT_EQ(o.transport.latency_ticks, 3);
  EXPECT_DOUBLE_EQ(o.transport.jitter, 2.5);
  EXPECT_DOUBLE_EQ(o.transport.drop, 0.1);
  EXPECT_EQ(o.transport.seed, 77u);
  EXPECT_TRUE(o.transport.seed_explicit);
  // Absent keys keep the sync default with no explicit seed.
  const CapesOptions d = capes_options_from_config(util::Config{});
  EXPECT_EQ(d.transport.kind, bus::TransportKind::kSync);
  EXPECT_FALSE(d.transport.seed_explicit);
}

TEST(ConfigIo, TransportKeysRoundTrip) {
  CapesOptions capes;
  capes.transport.kind = bus::TransportKind::kSim;
  capes.transport.latency_ticks = 5;
  capes.transport.jitter = 1.5;
  capes.transport.drop = 0.05;
  capes.transport.seed = 9;
  capes.transport.seed_explicit = true;
  const util::Config cfg = config_from_options(capes, lustre::ClusterOptions{});
  const CapesOptions back = capes_options_from_config(cfg);
  EXPECT_EQ(back.transport.kind, bus::TransportKind::kSim);
  EXPECT_EQ(back.transport.latency_ticks, 5);
  EXPECT_DOUBLE_EQ(back.transport.jitter, 1.5);
  EXPECT_DOUBLE_EQ(back.transport.drop, 0.05);
  EXPECT_EQ(back.transport.seed, 9u);
  EXPECT_TRUE(back.transport.seed_explicit);
}

TEST(ConfigIo, CaptureKeysAppliedAndRoundTrip) {
  util::Config cfg;
  ASSERT_TRUE(cfg.parse_string(R"(
capes.capture.path = /tmp/trace.cap
capes.capture.ring = 1024
)"));
  const CapesOptions o = capes_options_from_config(cfg);
  EXPECT_EQ(o.capture_path, "/tmp/trace.cap");
  EXPECT_EQ(o.capture_ring, 1024u);

  const util::Config dumped = config_from_options(o, lustre::ClusterOptions{});
  const CapesOptions back = capes_options_from_config(dumped);
  EXPECT_EQ(back.capture_path, "/tmp/trace.cap");
  EXPECT_EQ(back.capture_ring, 1024u);

  // Defaults: capture off, ring floor of 2 enforced.
  const CapesOptions d = capes_options_from_config(util::Config{});
  EXPECT_TRUE(d.capture_path.empty());
  util::Config tiny;
  ASSERT_TRUE(tiny.parse_string("capes.capture.ring = 0\n"));
  EXPECT_EQ(capes_options_from_config(tiny).capture_ring, 2u);
}

TEST(ConfigIo, BaseOverridesPreserved) {
  CapesOptions base;
  base.reward_scale_mbs = 123.0;
  util::Config cfg;
  const CapesOptions o = capes_options_from_config(cfg, base);
  EXPECT_DOUBLE_EQ(o.reward_scale_mbs, 123.0);
}

TEST(ConfigIo, RoundTripThroughConfig) {
  CapesOptions capes;
  capes.engine.minibatch_size = 48;
  capes.engine.dqn.gamma = 0.93f;
  lustre::ClusterOptions cluster;
  cluster.num_clients = 7;
  cluster.default_cwnd = 24.0;

  const util::Config cfg = config_from_options(capes, cluster);
  const CapesOptions c2 = capes_options_from_config(cfg);
  const auto cl2 = cluster_options_from_config(cfg);
  EXPECT_EQ(c2.engine.minibatch_size, 48u);
  EXPECT_NEAR(c2.engine.dqn.gamma, 0.93f, 1e-6f);
  EXPECT_EQ(cl2.num_clients, 7u);
  EXPECT_DOUBLE_EQ(cl2.default_cwnd, 24.0);
}

TEST(ConfigIo, ConfigFromOptionsDumpsParsable) {
  const auto cfg = config_from_options(CapesOptions{}, lustre::ClusterOptions{});
  util::Config reparsed;
  EXPECT_TRUE(reparsed.parse_string(cfg.dump()));
  EXPECT_GT(reparsed.size(), 10u);
}

// ---------------------------------------------------------------------------
// The table itself
// ---------------------------------------------------------------------------

TEST(Options, EachKeyAndFlagDeclaredOnce) {
  std::size_t keys = 0;
  for (const Option& row : options()) {
    EXPECT_TRUE(row.key != nullptr || row.flag != nullptr);
    EXPECT_NE(std::string(row.doc), "") << (row.key ? row.key : row.flag);
    for (const Option& other : options()) {
      if (&other == &row) continue;
      if (row.key && other.key) {
        EXPECT_STRNE(row.key, other.key);
      }
      if (row.flag && other.flag && (row.tools & other.tools) != 0) {
        EXPECT_STRNE(row.flag, other.flag);
      }
    }
    keys += row.key != nullptr;
  }
  EXPECT_EQ(keys, 71u);
}

TEST(Options, EmitReadsBackEveryKey) {
  EvaluationPreset preset = fast_preset(7);
  preset.capes.transport.seed = 11;
  preset.capes.transport.seed_explicit = true;
  preset.capes.faults.seed = 12;
  preset.capes.faults.seed_explicit = true;
  preset.capes.engine.learner_mode = LearnerMode::kAsync;
  preset.capes.sim_shards = 0;
  const util::Config emitted = emit_conf(preset);
  EXPECT_EQ(emitted.size(), 71u);  // every key, pinned seeds included
  EXPECT_EQ(emitted.get("capes.learner.mode", ""), "async");
  EXPECT_EQ(emitted.get("capes.sim.shards", ""), "auto");
  EXPECT_EQ(emitted.get("drl.gamma", ""), "0.95");

  EvaluationPreset reread;
  std::string error;
  ASSERT_TRUE(apply_conf(emitted, &reread, &error)) << error;
  EXPECT_EQ(emit_conf(reread).dump(), emitted.dump());
  EXPECT_TRUE(reread.capes.transport.seed_explicit);
  EXPECT_EQ(reread.capes.faults.seed, 12u);
}

TEST(Options, ChoiceWordsFollowEnumeratorOrder) {
  util::Config cfg;
  ASSERT_TRUE(cfg.parse_string(
      "capes.transport = tcp\ncapes.learner.mode = async\n"
      "capes.sim.shard_plan = rate\n"));
  EvaluationPreset preset;
  std::string error;
  ASSERT_TRUE(apply_conf(cfg, &preset, &error)) << error;
  EXPECT_EQ(preset.capes.transport.kind, bus::TransportKind::kTcp);
  EXPECT_EQ(preset.capes.engine.learner_mode, LearnerMode::kAsync);
  EXPECT_EQ(preset.capes.shard_plan, sim::ShardPlanKind::kRate);
  for (const auto& [word, speed] :
       {std::pair{"realtime", ReplaySpeed::kRealtime},
        std::pair{"fast", ReplaySpeed::kFast},
        std::pair{"max", ReplaySpeed::kMax}}) {
    const std::string flag = std::string("--speed=") + word;
    const char* argv[] = {"capes_replay", flag.c_str()};
    CommandLine cl;
    parse_command_line(kCapesReplay, 2, argv, &cl);
    EXPECT_EQ(cl.speed, speed) << word;
  }
}

TEST(Options, ConfRejectsUnparsableValuesNamingTheKey) {
  for (const char* text : {"capes.transport = simulated\n",
                           "capes.sim.shards = atuo\n",
                           "drl.gamma = high\n",
                           "drl.use_target_network = maybe\n"}) {
    util::Config cfg;
    ASSERT_TRUE(cfg.parse_string(text));
    EvaluationPreset preset;
    std::string error;
    EXPECT_FALSE(apply_conf(cfg, &preset, &error)) << text;
    const std::string key(text, std::string_view(text).find(' '));
    EXPECT_NE(error.find(key), std::string::npos) << error;
  }
}

TEST(Options, EveryIntegerRowClampsMinusOne) {
  // Unsigned fields used to take -1 through size_t: a 2^64-element
  // minibatch, a hang in train_steps_per_tick. Every integer key now
  // clamps into its row's range, and the build goes through.
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "minus_one.conf").string();
  const std::set<std::string> integer_specs = {
      "capes.sim.shards", "capes.transport.seed", "capes.sim.faults.seed"};
  std::size_t checked = 0;
  for (const Option& row : options()) {
    const Option::Type type = row.type();
    if (row.key == nullptr ||
        (type != Option::Type::kInt && !integer_specs.count(row.key))) {
      continue;
    }
    {
      std::ofstream out(path);
      out << row.key << " = -1\n";
    }
    std::string error;
    auto exp = Experiment::builder()
                   .workload("random:0.1")
                   .config_file(path)
                   .build(&error);
    ASSERT_NE(exp, nullptr) << row.key << ": " << error;
    const util::Config emitted = emit_conf(exp->preset());
    const auto value = emitted.get(row.key);
    if (type == Option::Type::kSpec) {
      EXPECT_NE(value.value_or(""), "-1") << row.key;
      continue;
    }
    ASSERT_TRUE(value.has_value()) << row.key;
    const double number = std::stod(*value);
    EXPECT_GE(number, row.lo) << row.key;
    EXPECT_GE(number, 0.0) << row.key;
    EXPECT_LE(number, row.hi) << row.key;
    ++checked;
  }
  std::filesystem::remove(path);
  EXPECT_GE(checked, 25u);
}

TEST(Options, ConfigMdTablesMatchTheTable) {
  // docs/CONFIG.md carries the rendered tables between two markers. To
  // regenerate after editing the table, run this test with
  // CAPES_UPDATE_CONFIG_MD=1 set.
  const std::string begin_marker =
      "<!-- BEGIN generated by core::render_option_tables() -->\n";
  const std::string end_marker = "<!-- END generated -->\n";
  std::ifstream in(CAPES_CONFIG_MD);
  ASSERT_TRUE(in) << CAPES_CONFIG_MD;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();
  const std::size_t begin = doc.find(begin_marker);
  const std::size_t end = doc.find(end_marker);
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  const std::size_t body = begin + begin_marker.size();
  const std::string committed = doc.substr(body, end - body);
  const std::string rendered = render_option_tables();
  if (committed != rendered && std::getenv("CAPES_UPDATE_CONFIG_MD")) {
    std::ofstream(CAPES_CONFIG_MD)
        << doc.substr(0, body) << rendered << doc.substr(end);
    GTEST_SKIP() << "rewrote " << CAPES_CONFIG_MD;
  }
  EXPECT_EQ(committed, rendered)
      << "docs/CONFIG.md is stale: rerun with CAPES_UPDATE_CONFIG_MD=1";
}

// ---------------------------------------------------------------------------
// The shared command-line parser
// ---------------------------------------------------------------------------

CliError parse(unsigned tool, std::vector<std::string> args,
               CommandLine* out = nullptr) {
  CommandLine scratch;
  std::vector<const char*> argv{"tool"};
  for (const auto& arg : args) argv.push_back(arg.c_str());
  return parse_command_line(tool, static_cast<int>(argv.size()), argv.data(),
                            out ? out : &scratch);
}

TEST(CommandLine, RejectsWithTypedError) {
  // Every argv list a tools/CMakeLists.txt *_rejects_* ctest feeds its
  // binary. Each must fail in the parser with an error naming the flag
  // and the offending token (a missing flag has no token).
  using Kind = CliError::Kind;
  const std::string missing_capture =
      (std::filesystem::path(::testing::TempDir()) / "no_such.cap").string();
  struct Case {
    unsigned tool;
    std::vector<std::string> args;
    Kind kind;
    std::string flag;
    std::string token;
  };
  const Case cases[] = {
      {kCapesRun, {"--train-ticks=abc"}, Kind::kBadValue, "--train-ticks", "abc"},
      {kCapesRun, {"--clusters=0"}, Kind::kBadValue, "--clusters", "0"},
      {kCapesRun, {"--clusters=abc"}, Kind::kBadValue, "--clusters", "abc"},
      {kCapesRun,
       {"--clusters=2", "--workload=random:0.1", "--workload=seqwrite",
        "--train-ticks=5", "--eval-ticks=5"},
       Kind::kConflict, "--clusters", "2"},
      {kCapesRun, {"--transport=udp"}, Kind::kBadValue, "--transport", "udp"},
      {kCapesRun, {"--transport=sim:drop=abc"}, Kind::kBadValue, "--transport",
       "sim:drop=abc"},
      {kCapesRun, {"--transport=sim:flux_capacitor=1"}, Kind::kBadValue,
       "--transport", "sim:flux_capacitor=1"},
      {kCapesRun, {"--transport=sim:drop=1.0"}, Kind::kBadValue, "--transport",
       "sim:drop=1.0"},
      {kCapesRun, {"--transport=tcp:port=4890"}, Kind::kBadValue, "--transport",
       "tcp:port=4890"},
      {kCapesRun, {"--transport=tcp:host=127.0.0.1,port=0"}, Kind::kBadValue,
       "--transport", "tcp:host=127.0.0.1,port=0"},
      {kCapesRun, {"--shard-plan=roulette"}, Kind::kBadValue, "--shard-plan",
       "roulette"},
      {kCapesRun, {"--sim-shards=0"}, Kind::kBadValue, "--sim-shards", "0"},
      {kCapesRun, {"--sim-shards=many"}, Kind::kBadValue, "--sim-shards",
       "many"},
      {kCapesRun, {"--faults=garbage"}, Kind::kBadValue, "--faults", "garbage"},
      {kCapesRun, {"--faults=faults:gremlins=0.1"}, Kind::kBadValue, "--faults",
       "faults:gremlins=0.1"},
      {kCapesRun, {"--faults=faults:ost_crash=1.0"}, Kind::kBadValue,
       "--faults", "faults:ost_crash=1.0"},
      {kCapesRun,
       {"--faults=faults:ost_crash=0.01",
        "--transport=tcp:host=127.0.0.1,port=4890"},
       Kind::kConflict, "--transport", "tcp:host=127.0.0.1,port=4890"},
      {kCapesReplay, {"--speed=max"}, Kind::kMissing, "--capture", ""},
      {kCapesReplay, {"--capture=x.cap", "--speed=warp"}, Kind::kBadValue,
       "--speed", "warp"},
      {kCapesReplay, {"--capture=x.cap", "--turbo"}, Kind::kUnknownFlag,
       "--turbo", "--turbo"},
      {kCapesReplay, {"--capture=" + missing_capture}, Kind::kBadValue,
       "--capture", missing_capture},
      {kCapesAgentd, {"--workload=random:0.1"}, Kind::kMissing, "--daemon", ""},
      {kCapesAgentd, {"--daemon=localhost"}, Kind::kBadValue, "--daemon",
       "localhost"},
      {kCapesDaemond, {"--port=99999"}, Kind::kBadValue, "--port", "99999"},
  };
  ASSERT_EQ(std::size(cases), 24u);
  for (const Case& c : cases) {
    const CliError error = parse(c.tool, c.args);
    SCOPED_TRACE(c.args.front());
    EXPECT_EQ(error.kind, c.kind) << error.message;
    EXPECT_EQ(error.flag, c.flag);
    EXPECT_NE(error.message.find(c.flag), std::string::npos) << error.message;
    EXPECT_EQ(error.token, c.token);
    EXPECT_NE(error.message.find(c.token), std::string::npos) << error.message;
  }
}

TEST(CommandLine, PresetFlagsQueueForTheBuilderInOrder) {
  CommandLine cl;
  ASSERT_FALSE(parse(kCapesRun,
                     {"--threads=2", "--conf=x.conf", "--sim-shards=auto",
                      "--seed=18446744073709551615", "--train-ticks=7"},
                     &cl));
  ASSERT_EQ(cl.preset_flags.size(), 2u);
  EXPECT_STREQ(cl.preset_flags[0].first->key, "capes.worker_threads");
  EXPECT_EQ(cl.preset_flags[1].second, "auto");
  EXPECT_EQ(cl.conf, "x.conf");
  EXPECT_EQ(cl.seed, 18446744073709551615ull);
  EXPECT_EQ(cl.train_ticks, 7);
  EXPECT_FALSE(cl.eval_ticks.has_value());
  // --help stops the parse before anything after it is looked at.
  EXPECT_FALSE(parse(kCapesRun, {"--help", "--frobnicate"}, &cl));
  EXPECT_TRUE(cl.help);
}

// The property the old regex scrape of each tool's source checked: the
// rendered usage mentions every flag the tool's parser accepts. Every
// flag any tool knows is offered to this tool's parser; those it accepts
// must appear in its usage.
void ExpectUsageListsEveryAcceptedFlag(unsigned tool) {
  const std::string usage = render_usage(tool, "");
  std::size_t accepted = 0;
  for (const Option& row : options()) {
    if (row.flag == nullptr) continue;
    const std::string arg =
        std::string(row.flag) + (row.arg != nullptr ? "=1" : "");
    if (parse(tool, {arg}).kind == CliError::Kind::kUnknownFlag) continue;
    ++accepted;
    EXPECT_NE(usage.find(std::string(row.flag) + (row.arg ? "=" : "")),
              std::string::npos)
        << row.flag;
  }
  EXPECT_GE(accepted, 5u);
}

TEST(CommandLine, UsageListsEveryCapesRunFlag) {
  ExpectUsageListsEveryAcceptedFlag(kCapesRun);
}
TEST(CommandLine, UsageListsEveryCapesAgentdFlag) {
  ExpectUsageListsEveryAcceptedFlag(kCapesAgentd);
}
TEST(CommandLine, UsageListsEveryCapesReplayFlag) {
  ExpectUsageListsEveryAcceptedFlag(kCapesReplay);
}
TEST(CommandLine, UsageListsEveryCapesDaemondFlag) {
  ExpectUsageListsEveryAcceptedFlag(kCapesDaemond);
}

}  // namespace
}  // namespace capes::core
