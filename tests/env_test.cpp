// core::env unit tests: the consolidated RTAD_* knob grammar, and the entry
// points that read the knobs.
//
// The contract under test: unset and empty both mean "use the fallback";
// anything else must parse in full under the knob's grammar or throw
// std::invalid_argument naming the variable — malformed knobs must never
// silently decay to a default, and scaled knobs must never wrap. The knobs
// enter only through DetectionOptions::from_env,
// serve::ServiceConfig::from_env and resolve_jobs; default-constructed
// config structs read none of them.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rtad/core/env.hpp"
#include "rtad/core/experiment_runner.hpp"
#include "rtad/serve/service.hpp"

namespace rtad::core::env {
namespace {

constexpr const char* kVar = "RTAD_ENV_TEST_KNOB";

class EnvTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_EQ(unsetenv(kVar), 0); }
  void TearDown() override { ASSERT_EQ(unsetenv(kVar), 0); }
  void set(const char* value) { ASSERT_EQ(setenv(kVar, value, 1), 0); }
};

TEST_F(EnvTest, RawTreatsEmptyAsUnset) {
  EXPECT_FALSE(raw(kVar).has_value());
  set("");
  EXPECT_FALSE(raw(kVar).has_value());
  set("value");
  ASSERT_TRUE(raw(kVar).has_value());
  EXPECT_EQ(*raw(kVar), "value");
}

TEST_F(EnvTest, StringOrFallsBackWhenUnsetOrEmpty) {
  EXPECT_EQ(string_or(kVar, "fb"), "fb");
  set("");
  EXPECT_EQ(string_or(kVar, "fb"), "fb");
  set("/tmp/x.json");
  EXPECT_EQ(string_or(kVar, "fb"), "/tmp/x.json");
}

TEST_F(EnvTest, PositiveOrParsesStrictly) {
  EXPECT_EQ(positive_or(kVar, 7), 7u);
  set("12");
  EXPECT_EQ(positive_or(kVar, 7), 12u);
  for (const char* bad : {"0", "-3", "abc", "3extra", "3.5", " 4"}) {
    set(bad);
    EXPECT_THROW(positive_or(kVar, 7), std::invalid_argument) << bad;
  }
}

TEST_F(EnvTest, U64OrAllowsZeroButNotGarbage) {
  EXPECT_EQ(u64_or(kVar, 5), 5u);
  set("0");
  EXPECT_EQ(u64_or(kVar, 5), 0u);
  set("18446744073709551615");
  EXPECT_EQ(u64_or(kVar, 5), 18446744073709551615ULL);
  for (const char* bad : {"-1", "nope", "1 "}) {
    set(bad);
    EXPECT_THROW(u64_or(kVar, 5), std::invalid_argument) << bad;
  }
}

TEST_F(EnvTest, ChoiceOrAcceptsExactSpellingsOnly) {
  EXPECT_EQ(choice_or(kVar, {"dense", "event"}, "event"), "event");
  set("dense");
  EXPECT_EQ(choice_or(kVar, {"dense", "event"}, "event"), "dense");
  for (const char* bad : {"evnet", "DENSE", "dense "}) {
    set(bad);
    EXPECT_THROW(choice_or(kVar, {"dense", "event"}, "event"),
                 std::invalid_argument)
        << bad;
  }
}

TEST_F(EnvTest, FlagOrIsZeroOrOne) {
  EXPECT_FALSE(flag_or(kVar, false));
  EXPECT_TRUE(flag_or(kVar, true));
  set("1");
  EXPECT_TRUE(flag_or(kVar, false));
  set("0");
  EXPECT_FALSE(flag_or(kVar, true));
  for (const char* bad : {"true", "yes", "2"}) {
    set(bad);
    EXPECT_THROW(flag_or(kVar, false), std::invalid_argument) << bad;
  }
}

TEST_F(EnvTest, U64OrHonoursItsUpperBound) {
  set("4294967295");
  EXPECT_EQ(u64_or(kVar, 0, UINT32_MAX), 4294967295u);
  set("4294967296");
  EXPECT_THROW(u64_or(kVar, 0, UINT32_MAX), std::invalid_argument);
}

TEST_F(EnvTest, ErrorsNameTheVariableAndTheValue) {
  set("fulL");
  try {
    positive_or(kVar, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(kVar), std::string::npos) << what;
    EXPECT_NE(what.find("fulL"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace rtad::core::env

namespace rtad::core {
namespace {

// ------------------------------------------------------------ entry points

/// Runs every test with no RTAD_* variable set, ambient ones included.
class KnobTest : public ::testing::Test {
 protected:
  void SetUp() override { clear(); }
  void TearDown() override { clear(); }
  static void clear() {
    std::vector<std::string> knobs;
    for (char** kv = environ; *kv != nullptr; ++kv) {
      const std::string entry = *kv;
      if (entry.rfind("RTAD_", 0) == 0) {
        knobs.push_back(entry.substr(0, entry.find('=')));
      }
    }
    for (const std::string& knob : knobs) {
      ASSERT_EQ(unsetenv(knob.c_str()), 0);
    }
  }
  static void set(const char* knob, const char* value) {
    ASSERT_EQ(setenv(knob, value, 1), 0);
  }
};

TEST_F(KnobTest, DefaultConstructedStructsReadNoKnob) {
  set("RTAD_SCHED", "dense");
  set("RTAD_BACKEND", "fast");
  set("RTAD_FAULTS", "trace.drop=0.5");
  set("RTAD_TRACE_PROTO", "etrace");
  set("RTAD_TRACE", "t.json");
  set("RTAD_METRICS", "m.json");
  const DetectionOptions o;
  EXPECT_EQ(o.sched, sim::SchedMode::kEventDriven);
  EXPECT_EQ(o.backend, gpgpu::GpuBackend::kCycle);
  EXPECT_FALSE(o.faults.has_value());
  EXPECT_EQ(o.proto, trace::TraceProtocol::kPft);
  EXPECT_TRUE(o.trace_path.empty());
  EXPECT_TRUE(o.metrics_path.empty());
  const SocConfig soc;
  EXPECT_EQ(soc.sched, sim::SchedMode::kEventDriven);
  EXPECT_EQ(soc.gpu_backend, gpgpu::GpuBackend::kCycle);
  EXPECT_FALSE(soc.faults.has_value());
  EXPECT_EQ(soc.trace_proto, trace::TraceProtocol::kPft);
  EXPECT_EQ(sim::Simulator().mode(), sim::SchedMode::kEventDriven);
  EXPECT_EQ(serve::ServiceConfig{}.proto, serve::FleetProtocol::kPft);
}

TEST_F(KnobTest, SchedKnobSetsSched) {
  set("RTAD_SCHED", "dense");
  EXPECT_EQ(DetectionOptions::from_env().sched, sim::SchedMode::kDense);
  clear();
  EXPECT_EQ(DetectionOptions::from_env().sched, sim::SchedMode::kEventDriven);
}

TEST_F(KnobTest, BackendKnobSetsBackend) {
  set("RTAD_BACKEND", "fast");
  EXPECT_EQ(DetectionOptions::from_env().backend, gpgpu::GpuBackend::kFast);
  clear();
  EXPECT_EQ(DetectionOptions::from_env().backend, gpgpu::GpuBackend::kCycle);
}

TEST_F(KnobTest, FaultsKnobSetsFaults) {
  set("RTAD_FAULTS", "trace.drop=0.5");
  const auto plan = DetectionOptions::from_env().faults;
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->rate(fault::FaultSite::kTraceDropByte), 0.5);
  set("RTAD_FAULTS", "");
  EXPECT_FALSE(DetectionOptions::from_env().faults.has_value());
  clear();
  EXPECT_FALSE(DetectionOptions::from_env().faults.has_value());
}

TEST_F(KnobTest, TraceProtoKnobSetsProto) {
  set("RTAD_TRACE_PROTO", "etrace");
  EXPECT_EQ(DetectionOptions::from_env().proto, trace::TraceProtocol::kEtrace);
  clear();
  EXPECT_EQ(DetectionOptions::from_env().proto, trace::TraceProtocol::kPft);
}

TEST_F(KnobTest, TraceKnobSetsTracePath) {
  set("RTAD_TRACE", "run.trace.json");
  EXPECT_EQ(DetectionOptions::from_env().trace_path, "run.trace.json");
  clear();
  EXPECT_EQ(DetectionOptions::from_env().trace_path, "");
}

TEST_F(KnobTest, MetricsKnobSetsMetricsPath) {
  set("RTAD_METRICS", "run.metrics.json");
  EXPECT_EQ(DetectionOptions::from_env().metrics_path, "run.metrics.json");
  clear();
  EXPECT_EQ(DetectionOptions::from_env().metrics_path, "");
}

TEST_F(KnobTest, JobsKnobParsesAndRejectsMalformedValues) {
  set("RTAD_JOBS", "3");
  EXPECT_EQ(resolve_jobs(0), 3u);
  EXPECT_EQ(resolve_jobs(5), 5u);  // an explicit count never reads the knob
  // Malformed counts used to silently decay to hardware_concurrency; they
  // are a loud error now (core::env consolidation).
  for (const char* bad : {"0", "not-a-number", "3extra"}) {
    set("RTAD_JOBS", bad);
    EXPECT_THROW(resolve_jobs(0), std::invalid_argument) << bad;
  }
  // Unset and empty both mean "use the hardware default".
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  set("RTAD_JOBS", "");
  EXPECT_EQ(resolve_jobs(0), hw);
  clear();
  EXPECT_EQ(resolve_jobs(0), hw);
}

TEST_F(KnobTest, ServiceConfigBuildsOnOneFaultsParse) {
  set("RTAD_TRACE_PROTO", "etrace");
  set("RTAD_FAULTS", "trace.drop=0.5,serve.shard_crash=0.25,seed=7");
  set("RTAD_TELEMETRY", "spill.bin");
  set("RTAD_TELEMETRY_CAP_KB", "2");
  const serve::ServiceConfig cfg = serve::ServiceConfig::from_env();
  EXPECT_EQ(cfg.detection.proto, trace::TraceProtocol::kEtrace);
  EXPECT_EQ(cfg.proto, serve::FleetProtocol::kEtrace);
  ASSERT_TRUE(cfg.detection.faults.has_value());
  EXPECT_DOUBLE_EQ(cfg.detection.faults->rate(fault::FaultSite::kTraceDropByte),
                   0.5);
  EXPECT_DOUBLE_EQ(cfg.serve_faults.shard_crash, 0.25);
  EXPECT_EQ(cfg.fault_seed, 7u);
  EXPECT_EQ(cfg.telemetry.spill_path, "spill.bin");
  EXPECT_EQ(cfg.telemetry.cap_bytes, 2048u);
}

TEST_F(KnobTest, ScaledKnobRejectsValuesThatWouldWrap) {
  // x1024 wraps to 0 and past it.
  for (const char* value : {"18014398509481984", "18014398509481985"}) {
    clear();
    set("RTAD_TELEMETRY_CAP_KB", value);
    try {
      serve::ServiceConfig::from_env();
      ADD_FAILURE() << "RTAD_TELEMETRY_CAP_KB=" << value << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("RTAD_TELEMETRY_CAP_KB"),
                std::string::npos)
          << e.what();
    }
  }

  // The largest value that still fits is accepted unchanged.
  clear();
  set("RTAD_TELEMETRY_CAP_KB", "18014398509481983");
  const serve::ServiceConfig cfg = serve::ServiceConfig::from_env();
  EXPECT_EQ(cfg.telemetry.cap_bytes, 18014398509481983ULL * 1024);
}

}  // namespace
}  // namespace rtad::core
