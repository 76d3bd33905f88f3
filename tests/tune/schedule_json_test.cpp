// Schedule persistence: json()/from_json round-trip every search-key
// field exactly (this is what --save-schedule / --load-schedule rely on),
// tolerate hand-edited whitespace and field order, and reject missing
// fields and unknown enum names instead of guessing.

#include "tune/schedule.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "core/fasted.hpp"
#include "core/kernels/kernel_context.hpp"
#include "data/generators.hpp"
#include "tune/schedule_space.hpp"

namespace fasted::tune {
namespace {

TEST(ScheduleJson, RoundTripsEverySearchKeyField) {
  Schedule s;
  s.tile_m = 256;
  s.tile_n = 64;
  s.policy = sim::DispatchPolicy::kRowMajor;
  s.square = 4;
  s.shard_capacity = 250000;
  s.steal = StealMode::kOn;

  const Schedule back = Schedule::from_json(s.json());
  EXPECT_TRUE(back == s) << back.describe();
  // Serializing the parse reproduces the exact text: the format is stable.
  EXPECT_EQ(back.json(), s.json());
}

TEST(ScheduleJson, RoundTripsTheWholeSearchSpace) {
  const FastedConfig base = FastedConfig::paper_defaults();
  for (const Schedule& s : ScheduleSpace::enumerate(base, 100000, 2)) {
    const Schedule back = Schedule::from_json(s.json());
    EXPECT_TRUE(back == s) << s.describe();
    EXPECT_TRUE(back.valid(base)) << s.describe();
  }
}

TEST(ScheduleJson, AcceptsReorderedFieldsAndWhitespace) {
  const Schedule s = Schedule::from_json(
      "{\n  \"steal\": \"off\",\n  \"shard_capacity\": 1024,\n"
      "  \"policy\": \"column_major\",\n  \"square\": 8,\n"
      "  \"tile_n\": 128,  \"tile_m\": 64\n}\n");
  EXPECT_EQ(s.tile_m, 64);
  EXPECT_EQ(s.tile_n, 128);
  EXPECT_EQ(s.policy, sim::DispatchPolicy::kColumnMajor);
  EXPECT_EQ(s.square, 8);
  EXPECT_EQ(s.shard_capacity, 1024u);
  EXPECT_EQ(s.steal, StealMode::kOff);
}

TEST(ScheduleJson, RejectsMissingFieldsAndUnknownNames) {
  const std::string good = Schedule{}.json();
  EXPECT_THROW(Schedule::from_json("{}"), CheckError);
  EXPECT_THROW(Schedule::from_json("{\"tile_m\": 128}"), CheckError);

  std::string bad_policy = good;
  bad_policy.replace(bad_policy.find("squares"), 7, "spirals");
  EXPECT_THROW(Schedule::from_json(bad_policy), CheckError);

  std::string bad_steal = good;
  bad_steal.replace(bad_steal.find("\"env\""), 5, "\"maybe\"");
  EXPECT_THROW(Schedule::from_json(bad_steal), CheckError);

  std::string bad_int = good;
  bad_int.replace(bad_int.find(": 128"), 5, ": lots");
  EXPECT_THROW(Schedule::from_json(bad_int), CheckError);
}

TEST(ScheduleJson, RetiredKernelNameLoadsAndFallsBackToDomainBest) {
  // Schedules saved while the avx512fp16 variant existed still load; the
  // retired name resolves like any unsupported one: each domain gets its
  // own best kernel (after a one-time warning), and joins run unchanged.
  std::string text = Schedule{}.json();
  const std::size_t at = text.find("\"auto\"");
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, 6, "\"avx512fp16\"");
  const Schedule s = Schedule::from_json(text);
  EXPECT_EQ(s.kernel, "avx512fp16");
  const FastedConfig base = FastedConfig::paper_defaults();
  EXPECT_TRUE(s.valid(base));

  const FastedConfig cfg = s.apply(base);
  const ThreadPool& pool = ThreadPool::global();
  const auto ctx = kernels::KernelContext::resolve(cfg.rz_kernel, pool);
  const kernels::KernelRegistry& reg = kernels::KernelRegistry::global();
  for (std::size_t d = 0; d < pool.domain_count(); ++d) {
    const kernels::RzDotKernel& want = reg.env_pin() != nullptr
                                           ? *reg.env_pin()
                                           : reg.best_for(pool.domain_features(d));
    EXPECT_EQ(&ctx.kernel(d), &want) << d;
  }
  const auto data = data::uniform(200, 16, 5);
  const auto retired = FastedEngine(cfg).self_join(data, 0.9f);
  const auto defaults = FastedEngine(base).self_join(data, 0.9f);
  EXPECT_EQ(retired.pair_count, defaults.pair_count);
  EXPECT_EQ(retired.result.neighbors(), defaults.result.neighbors());
}

}  // namespace
}  // namespace fasted::tune
