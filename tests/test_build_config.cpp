/// Build-configuration invariants: the version string reported by the
/// library matches the CMake project version (passed to this test via
/// QXMAP_PROJECT_VERSION), the default options pick the documented
/// method/engine in both the Z3 and the Z3-less build, and an explicit Z3
/// request degrades to CDCL where Z3 is compiled out.

#include "api/qxmap.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <stdexcept>
#include <string>

#include "reason/engine.hpp"

namespace qxmap {
namespace {

TEST(BuildConfig, VersionMatchesCmakeProjectVersion) {
#ifdef QXMAP_PROJECT_VERSION
  EXPECT_STREQ(version(), QXMAP_PROJECT_VERSION);
#else
  GTEST_SKIP() << "QXMAP_PROJECT_VERSION not provided by the build";
#endif
}

TEST(BuildConfig, VersionIsSemver) {
  const std::string v = version();
  int dots = 0;
  for (const char ch : v) {
    if (ch == '.') {
      ++dots;
    } else {
      EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(ch))) << "version: " << v;
    }
  }
  EXPECT_EQ(dots, 2) << "version: " << v;
}

TEST(BuildConfig, DefaultOptionsSelectExactMethod) {
  const MapOptions options;
  EXPECT_EQ(options.method, Method::Exact);
  EXPECT_EQ(options.exact.strategy, exact::PermutationStrategy::All);
}

TEST(BuildConfig, DefaultEngineIsDpInEveryBuild) {
  const MapOptions options;
  EXPECT_EQ(options.exact.engine, reason::EngineKind::Dp);
  EXPECT_EQ(reason::running_engine(options.exact.engine), reason::EngineKind::Dp);
  // Dp is the layout DP, not a ReasoningEngine backend.
  EXPECT_THROW((void)reason::make_engine(options.exact.engine), std::invalid_argument);
}

TEST(BuildConfig, ExplicitZ3RequestDegradesToCdclWithoutZ3) {
  const auto engine = reason::make_engine(reason::EngineKind::Z3);
  const std::string expected = reason::z3_available() ? "z3" : "cdcl";
  EXPECT_EQ(engine->name(), expected);
  EXPECT_EQ(reason::to_string(reason::running_engine(reason::EngineKind::Z3)), expected);
}

TEST(BuildConfig, CdclEngineIsAlwaysAvailable) {
  EXPECT_EQ(reason::make_engine(reason::EngineKind::Cdcl)->name(), "cdcl");
}

}  // namespace
}  // namespace qxmap
