#include "api/qxmap.hpp"

#include <gtest/gtest.h>

#include "bench_circuits/table1_suite.hpp"
#include "exact/swap_synthesis.hpp"

namespace qxmap {
namespace {

TEST(Api, DefaultIsExactMapping) {
  const Circuit c = bench::paper_example_circuit();
  MapOptions opt;
  opt.exact.budget = std::chrono::milliseconds(30000);
  const auto res = map(c, arch::ibm_qx4(), opt);
  EXPECT_EQ(res.status, reason::Status::Optimal);
  EXPECT_EQ(res.cost_f, 4);
}

TEST(Api, StochasticMethodDispatch) {
  const Circuit c = bench::paper_example_circuit();
  MapOptions opt;
  opt.method = Method::StochasticSwap;
  const auto res = map(c, arch::ibm_qx4(), opt);
  EXPECT_EQ(res.engine_name, "qiskit-stochastic");
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, arch::ibm_qx4()));
}

TEST(Api, AStarMethodDispatch) {
  const Circuit c = bench::paper_example_circuit();
  MapOptions opt;
  opt.method = Method::AStar;
  const auto res = map(c, arch::ibm_qx4(), opt);
  EXPECT_EQ(res.engine_name, "astar");
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, arch::ibm_qx4()));
}

TEST(Api, SabreAndLayerWeightMethodDispatch) {
  const Circuit c = bench::paper_example_circuit();
  MapOptions sabre;
  sabre.method = Method::Sabre;
  EXPECT_EQ(map(c, arch::ibm_qx4(), sabre).engine_name, "sabre");
  MapOptions lw;
  lw.method = Method::LayerWeight;
  const auto res = map(c, arch::ibm_qx4(), lw);
  EXPECT_EQ(res.engine_name, "layer-weight");
  EXPECT_TRUE(exact::satisfies_coupling(res.mapped, arch::ibm_qx4()));
  EXPECT_TRUE(res.verified) << res.verify_message;
}

/// A barrier is a user fence: every mapper must emit it between the gates it
/// separates — neither dropped (so peephole passes cannot cancel across it)
/// nor hoisted ahead of earlier gates.
class ApiBarrier : public ::testing::TestWithParam<Method> {};

TEST_P(ApiBarrier, StaysBetweenTheGatesItSeparates) {
  Circuit c(5, "fence");
  c.h(0);
  c.h(0);
  c.append(Gate::barrier());
  c.h(0);
  c.h(0);
  MapOptions opt;
  opt.method = GetParam();
  opt.exact.budget = std::chrono::milliseconds(30000);
  const auto res = map(c, arch::ibm_qx4(), opt);
  std::vector<OpKind> kinds;
  for (const auto& g : res.mapped) {
    kinds.push_back(g.kind);
    if (g.kind != OpKind::Barrier) {
      EXPECT_EQ(g.target, res.initial_layout[0]);
    }
  }
  EXPECT_EQ(kinds, (std::vector<OpKind>{OpKind::H, OpKind::H, OpKind::Barrier, OpKind::H,
                                        OpKind::H}));
}

INSTANTIATE_TEST_SUITE_P(AllMethods, ApiBarrier,
                         ::testing::Values(Method::Exact, Method::StochasticSwap, Method::AStar,
                                           Method::Sabre, Method::LayerWeight),
                         [](const ::testing::TestParamInfo<Method>& info) {
                           switch (info.param) {
                             case Method::Exact: return "Exact";
                             case Method::StochasticSwap: return "StochasticSwap";
                             case Method::AStar: return "AStar";
                             case Method::Sabre: return "Sabre";
                             case Method::LayerWeight: return "LayerWeight";
                           }
                           return "Unknown";
                         });

TEST(Api, QasmInQasmOut) {
  // The facade exposes the QASM front-end directly.
  const Circuit c = qasm::parse(R"(
    OPENQASM 2.0;
    qreg q[3];
    h q[0];
    cx q[0], q[1];
    cx q[1], q[2];
    cx q[0], q[2];
  )");
  MapOptions opt;
  opt.exact.budget = std::chrono::milliseconds(30000);
  const auto res = map(c, arch::by_name("qx4"), opt);
  ASSERT_EQ(res.status, reason::Status::Optimal);
  const std::string text = qasm::write(res.mapped);
  const Circuit reparsed = qasm::parse(text);
  EXPECT_EQ(reparsed.size(), res.mapped.size());
}

TEST(Api, VersionIsSemver) {
  const std::string v = version();
  EXPECT_EQ(std::count(v.begin(), v.end(), '.'), 2);
}

}  // namespace
}  // namespace qxmap
