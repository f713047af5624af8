/// Property-style sweeps over common/permutation and common/gf2: algebraic
/// identities (compose/invert, rank/from_rank round-trips, GF(2) rank
/// invariants) checked over many seeded random instances via common/rng —
/// plus the circuit-fingerprint properties (ir/fingerprint.hpp: QASM
/// round-trip and register-renaming stability, mutation sensitivity,
/// collision-freedom over the corpus) and a seeded random-circuit sweep
/// asserting the parallel exact mapper agrees with its serial run on every
/// built-in architecture.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "arch/architectures.hpp"
#include "bench_circuits/generators.hpp"
#include "common/gf2.hpp"
#include "common/permutation.hpp"
#include "common/rng.hpp"
#include "exact/exact_mapper.hpp"
#include "ir/fingerprint.hpp"
#include "qasm/parser.hpp"
#include "qasm/writer.hpp"

namespace qxmap {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89};

Permutation random_permutation(std::size_t m, Rng& rng) {
  std::vector<int> images(m);
  std::iota(images.begin(), images.end(), 0);
  rng.shuffle(images);
  return Permutation(std::move(images));
}

/// Random invertible GF(2) matrix: start from the identity and apply row
/// operations (each preserves invertibility).
Gf2Matrix random_invertible(std::size_t n, Rng& rng, int ops = 64) {
  Gf2Matrix m = Gf2Matrix::identity(n);
  if (n < 2) return m;  // no distinct row pair to operate on
  for (int k = 0; k < ops; ++k) {
    const auto a = static_cast<std::size_t>(rng.next_below(n));
    auto b = static_cast<std::size_t>(rng.next_below(n));
    while (b == a) b = static_cast<std::size_t>(rng.next_below(n));
    if (rng.next_bool(0.5)) {
      m.xor_row(a, b);
    } else {
      m.swap_rows(a, b);
    }
  }
  return m;
}

TEST(PermutationProperties, ComposeWithInverseIsIdentity) {
  for (const auto seed : kSeeds) {
    Rng rng(seed);
    for (std::size_t m = 1; m <= 8; ++m) {
      const Permutation p = random_permutation(m, rng);
      EXPECT_TRUE(p.then(p.inverse()).is_identity()) << p.to_string();
      EXPECT_TRUE(p.inverse().then(p).is_identity()) << p.to_string();
      EXPECT_EQ(p.inverse().inverse(), p);
    }
  }
}

TEST(PermutationProperties, CompositionIsAssociativeAndAntiDistributesOverInverse) {
  for (const auto seed : kSeeds) {
    Rng rng(seed);
    const std::size_t m = 7;
    const Permutation a = random_permutation(m, rng);
    const Permutation b = random_permutation(m, rng);
    const Permutation c = random_permutation(m, rng);
    EXPECT_EQ(a.then(b).then(c), a.then(b.then(c)));
    // (a.then(b))^-1 = b^-1 . a^-1 in `then` order.
    EXPECT_EQ(a.then(b).inverse(), b.inverse().then(a.inverse()));
  }
}

TEST(PermutationProperties, RankRoundTripsThroughFromRank) {
  for (const auto seed : kSeeds) {
    Rng rng(seed);
    for (std::size_t m = 1; m <= 8; ++m) {
      const Permutation p = random_permutation(m, rng);
      const std::uint64_t r = p.rank();
      EXPECT_LT(r, Permutation::factorial(m));
      EXPECT_EQ(Permutation::from_rank(m, r), p);
      EXPECT_EQ(Permutation::from_rank(m, r).rank(), r);
    }
  }
}

TEST(PermutationProperties, TranspositionIsAnInvolution) {
  for (const auto seed : kSeeds) {
    Rng rng(seed);
    const std::size_t m = 6;
    const Permutation p = random_permutation(m, rng);
    const int a = rng.next_int(0, static_cast<int>(m) - 1);
    int b = rng.next_int(0, static_cast<int>(m) - 1);
    if (a == b) b = (b + 1) % static_cast<int>(m);
    const Permutation q = p.with_transposition(a, b);
    EXPECT_NE(q, p);
    EXPECT_EQ(q.with_transposition(a, b), p);
    // One transposition changes the minimal transposition count by exactly 1.
    EXPECT_EQ(std::abs(q.min_transpositions() - p.min_transpositions()), 1);
  }
}

TEST(PermutationProperties, CycleStructureAccountsForEveryElement) {
  for (const auto seed : kSeeds) {
    Rng rng(seed);
    const std::size_t m = 8;
    const Permutation p = random_permutation(m, rng);
    std::size_t in_cycles = 0;
    int cycle_excess = 0;  // sum over cycles of (len - 1) = min_transpositions
    for (const auto& cycle : p.nontrivial_cycles()) {
      EXPECT_GE(cycle.size(), 2u);
      in_cycles += cycle.size();
      cycle_excess += static_cast<int>(cycle.size()) - 1;
      // Each listed cycle is consistent with the permutation's action.
      for (std::size_t i = 0; i < cycle.size(); ++i) {
        EXPECT_EQ(p.at(static_cast<std::size_t>(cycle[i])), cycle[(i + 1) % cycle.size()]);
      }
    }
    EXPECT_LE(in_cycles, m);
    EXPECT_EQ(cycle_excess, p.min_transpositions());
  }
}

TEST(Gf2Properties, PermutationMatricesRespectComposition) {
  for (const auto seed : kSeeds) {
    Rng rng(seed);
    const std::size_t m = 6;
    const Permutation a = random_permutation(m, rng);
    const Permutation b = random_permutation(m, rng);
    const Gf2Matrix ma = Gf2Matrix::from_permutation(a);
    const Gf2Matrix mb = Gf2Matrix::from_permutation(b);
    // from_permutation(pi) maps e_i -> e_{pi(i)}, so applying a then b is
    // the product M_b * M_a.
    EXPECT_EQ(mb.multiply(ma), Gf2Matrix::from_permutation(a.then(b)));
    EXPECT_EQ(ma.rank(), m);
    EXPECT_TRUE(ma.invertible());
    EXPECT_EQ(ma.inverse(), Gf2Matrix::from_permutation(a.inverse()));
  }
}

TEST(Gf2Properties, RowOperationsPreserveRank) {
  for (const auto seed : kSeeds) {
    Rng rng(seed);
    for (const std::size_t n : {3u, 7u, 64u, 65u}) {
      Gf2Matrix m = random_invertible(n, rng);
      EXPECT_EQ(m.rank(), n);
      EXPECT_TRUE(m.invertible());
      // xor_row twice with the same pair restores the matrix.
      const Gf2Matrix before = m;
      m.xor_row(0, n - 1);
      m.xor_row(0, n - 1);
      EXPECT_EQ(m, before);
      m.swap_rows(0, n - 1);
      m.swap_rows(0, n - 1);
      EXPECT_EQ(m, before);
    }
  }
}

TEST(Gf2Properties, InverseIsTwoSided) {
  for (const auto seed : kSeeds) {
    Rng rng(seed);
    const std::size_t n = 9;
    const Gf2Matrix m = random_invertible(n, rng);
    const Gf2Matrix inv = m.inverse();
    const Gf2Matrix id = Gf2Matrix::identity(n);
    EXPECT_EQ(m.multiply(inv), id);
    EXPECT_EQ(inv.multiply(m), id);
    EXPECT_EQ(inv.inverse(), m);
  }
}

TEST(Gf2Properties, ProductRankIsBoundedAndInvertiblesCompose) {
  for (const auto seed : kSeeds) {
    Rng rng(seed);
    const std::size_t n = 8;
    const Gf2Matrix a = random_invertible(n, rng);
    Gf2Matrix singular(n);  // zero matrix: rank 0
    EXPECT_EQ(singular.rank(), 0u);
    EXPECT_FALSE(singular.invertible());
    // rank(A * B) <= min(rank A, rank B); invertible * invertible stays full.
    EXPECT_EQ(a.multiply(singular).rank(), 0u);
    const Gf2Matrix b = random_invertible(n, rng);
    EXPECT_EQ(a.multiply(b).rank(), n);
  }
}

TEST(Gf2Properties, RankMatchesNumberOfIndependentRowsByConstruction) {
  for (const auto seed : kSeeds) {
    Rng rng(seed);
    const std::size_t n = 10;
    // Build a matrix whose first k rows are an invertible k x k block on the
    // leading coordinates and whose remaining rows duplicate earlier rows:
    // its rank is exactly k.
    const auto k = static_cast<std::size_t>(rng.next_int(1, static_cast<int>(n)));
    const Gf2Matrix block = random_invertible(k, rng);
    Gf2Matrix m(n);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) m.set(i, j, block.get(i, j));
    }
    for (std::size_t i = k; i < n; ++i) {
      const auto src = static_cast<std::size_t>(rng.next_below(k));
      for (std::size_t j = 0; j < n; ++j) m.set(i, j, m.get(src, j));
    }
    EXPECT_EQ(m.rank(), k);
    EXPECT_EQ(m.invertible(), k == n);
  }
}

// --- Circuit fingerprint properties (ir/fingerprint.hpp) -----------------

std::string corpus_path(const std::string& file) {
  return std::string(QXMAP_SOURCE_DIR) + "/tests/qasm_corpus/" + file;
}

constexpr const char* kCorpusFiles[] = {
    "teleport.qasm",        "adder_majority.qasm", "qft4.qasm",         "qec_bitflip.qasm",
    "expr_param_gates.qasm", "pairwise_entangle.qasm", "swap_routing.qasm",
};

/// Circuits whose gate streams differ must fingerprint differently; this
/// rebuilds `c` with one surgical edit applied by `edit(gates)`.
Circuit rebuilt(const Circuit& c, int num_qubits,
                const std::function<void(std::vector<Gate>&)>& edit) {
  std::vector<Gate> gates(c.begin(), c.end());
  edit(gates);
  Circuit out(num_qubits, c.name());
  for (auto& g : gates) out.append(std::move(g));
  return out;
}

TEST(FingerprintProperties, StableUnderQasmRoundTrip) {
  // parse → write → parse is the canonical text round-trip: parameters are
  // re-read at the writer's 12-decimal precision, which the fingerprint
  // hashes at, so the hash must survive any number of round trips.
  for (const auto* file : kCorpusFiles) {
    SCOPED_TRACE(file);
    const Circuit c = qasm::parse_file(corpus_path(file));
    const Circuit once = qasm::parse(qasm::write(c), c.name());
    const Circuit twice = qasm::parse(qasm::write(once), c.name());
    EXPECT_EQ(fingerprint(once), fingerprint(c));
    EXPECT_EQ(fingerprint(twice), fingerprint(c));
  }
  for (const auto seed : kSeeds) {
    const Circuit c = bench::random_circuit(4, 6, 5, seed, "fp-rt");
    const Circuit back = qasm::parse(qasm::write(c), c.name());
    EXPECT_EQ(fingerprint(back), fingerprint(c)) << "seed " << seed;
  }
}

TEST(FingerprintProperties, CircuitNameIsNotSignificant) {
  for (const auto seed : kSeeds) {
    Circuit a = bench::random_circuit(4, 4, 4, seed, "one-name");
    Circuit b = a;
    b.set_name("an entirely different name");
    EXPECT_EQ(fingerprint(a), fingerprint(b));
  }
}

TEST(FingerprintProperties, StableUnderClassicalRegisterRenaming) {
  // Same wiring, cregs renamed "c"/"flags" -> "result"/"syndrome": the
  // fingerprint identifies registers by first appearance, not by name.
  const auto build = [](const std::string& r1, const std::string& r2) {
    Circuit c(3, "rename");
    c.h(0);
    c.append(Gate::measure(0, r1, 0));
    Gate guarded = Gate::single(OpKind::X, 1);
    guarded.condition = Condition{r1, 2, 1};
    c.append(guarded);
    c.append(Gate::measure(1, r2, 1));
    Gate guarded2 = Gate::cnot(1, 2);
    guarded2.condition = Condition{r2, 2, 2};
    c.append(guarded2);
    return c;
  };
  EXPECT_EQ(fingerprint(build("c", "flags")), fingerprint(build("result", "syndrome")));
  // But *merging* two registers into one changes the id sequence.
  EXPECT_NE(fingerprint(build("c", "flags")), fingerprint(build("c", "c")));
  // Exchanging the two names wholesale is itself just a renaming (ids are
  // positional), so it must be identified, not distinguished.
  EXPECT_EQ(fingerprint(build("c", "flags")), fingerprint(build("flags", "c")));
}

TEST(FingerprintProperties, EveryGateMutationChangesTheFingerprint) {
  for (const auto seed : kSeeds) {
    const int n = 4;
    const Circuit c = bench::random_circuit(n, 5, 4, seed, "fp-mut");
    const std::uint64_t fp = fingerprint(c);
    SCOPED_TRACE("seed " + std::to_string(seed));

    // Drop a gate.
    EXPECT_NE(fingerprint(rebuilt(c, n, [](auto& g) { g.pop_back(); })), fp);
    // Insert a gate.
    EXPECT_NE(fingerprint(rebuilt(c, n,
                                  [](auto& g) { g.push_back(Gate::single(OpKind::H, 0)); })),
              fp);
    // Retarget the first single-qubit gate.
    EXPECT_NE(fingerprint(rebuilt(c, n,
                                  [n](auto& g) {
                                    for (auto& gate : g) {
                                      if (gate.is_single_qubit()) {
                                        gate.target = (gate.target + 1) % n;
                                        return;
                                      }
                                    }
                                  })),
              fp);
    // Flip a gate kind.
    EXPECT_NE(fingerprint(rebuilt(c, n,
                                  [](auto& g) {
                                    for (auto& gate : g) {
                                      if (gate.is_single_qubit()) {
                                        gate.kind =
                                            gate.kind == OpKind::H ? OpKind::X : OpKind::H;
                                        return;
                                      }
                                    }
                                  })),
              fp);
    // Reverse a CNOT.
    EXPECT_NE(fingerprint(rebuilt(c, n,
                                  [](auto& g) {
                                    for (auto& gate : g) {
                                      if (gate.is_cnot()) {
                                        std::swap(gate.control, gate.target);
                                        return;
                                      }
                                    }
                                  })),
              fp);
    // Reorder two adjacent distinct gates.
    Circuit reordered = rebuilt(c, n, [](auto& g) {
      for (std::size_t i = 0; i + 1 < g.size(); ++i) {
        if (!(g[i] == g[i + 1])) {
          std::swap(g[i], g[i + 1]);
          return;
        }
      }
    });
    EXPECT_NE(fingerprint(reordered), fp);
    // An idle qubit line widens the register and must be significant.
    EXPECT_NE(fingerprint(rebuilt(c, n + 1, [](auto&) {})), fp);
  }
}

TEST(FingerprintProperties, ParameterEditsBeyondWriterPrecisionAreSignificant) {
  Circuit base(1, "fp-param");
  base.append(Gate::single(OpKind::Rz, 0, {0.5}));
  Circuit nudged(1, "fp-param");
  nudged.append(Gate::single(OpKind::Rz, 0, {0.5 + 1e-6}));
  EXPECT_NE(fingerprint(base), fingerprint(nudged));
  // Below the writer's 12-decimal resolution the two circuits serialise to
  // the same QASM text, so they are deliberately identified.
  Circuit sub_ulp(1, "fp-param");
  sub_ulp.append(Gate::single(OpKind::Rz, 0, {0.5 + 1e-14}));
  EXPECT_EQ(fingerprint(base), fingerprint(sub_ulp));
}

TEST(FingerprintProperties, ConditionAndClassicalWiringAreSignificant) {
  Circuit base(2, "fp-cls");
  Gate guarded = Gate::single(OpKind::X, 1);
  guarded.condition = Condition{"c", 2, 1};
  base.append(guarded);
  base.append(Gate::measure(0, "c", 0));
  const std::uint64_t fp = fingerprint(base);

  Circuit value = base;
  EXPECT_NE(fingerprint(rebuilt(value, 2,
                                [](auto& g) { g[0].condition->value = 3; })),
            fp);
  EXPECT_NE(fingerprint(rebuilt(base, 2, [](auto& g) { g[0].condition->width = 3; })), fp);
  EXPECT_NE(fingerprint(rebuilt(base, 2, [](auto& g) { g[0].condition.reset(); })), fp);
  EXPECT_NE(fingerprint(rebuilt(base, 2, [](auto& g) { g[1].cbit->bit = 1; })), fp);
}

TEST(FingerprintProperties, NoCollisionsAcrossCorpusAndRandomSweep) {
  // Distinct gate streams must get distinct fingerprints across the whole
  // qasm corpus, a seeded random sweep, and every prefix of each — a few
  // hundred near-identical circuits, exactly the collision-prone shape a
  // service cache would see.
  std::map<std::uint64_t, std::string> seen;  // fp -> canonical stream
  const auto canonical = [](const Circuit& c) {
    std::string s = std::to_string(c.num_qubits());
    for (const auto& g : c) {
      s += '|';
      s += g.to_string();
    }
    return s;
  };
  const auto check = [&](const Circuit& c) {
    const auto [it, inserted] = seen.emplace(fingerprint(c), canonical(c));
    if (!inserted) {
      EXPECT_EQ(it->second, canonical(c)) << "fingerprint collision";
    }
  };
  for (const auto* file : kCorpusFiles) {
    const Circuit c = qasm::parse_file(corpus_path(file));
    check(c);
    for (std::size_t k = 0; k < c.size(); ++k) {
      Circuit prefix(c.num_qubits(), c.name());
      for (std::size_t i = 0; i < k; ++i) prefix.append(c.gate(i));
      check(prefix);
    }
  }
  for (const auto seed : kSeeds) {
    for (int q = 2; q <= 5; ++q) {
      const Circuit c = bench::random_circuit(q, 4, 4, seed, "fp-sweep");
      check(c);
    }
  }
  EXPECT_GT(seen.size(), 100u);
}

TEST(FingerprintProperties, StringFormIsSelfDescribingAndStable) {
  const Circuit c = bench::random_circuit(5, 3, 3, 17, "fp-str");
  const std::string s = fingerprint_string(c);
  ASSERT_EQ(s.size(), std::string("c5:").size() + 16);
  EXPECT_EQ(s.substr(0, 3), "c5:");
  EXPECT_EQ(s, fingerprint_string(c));  // pure function of content
  for (const char ch : s.substr(3)) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(ch))) << s;
  }
}

/// The physical qubits a layout occupies, ascending: the winning subset.
std::vector<int> sorted(std::vector<int> layout) {
  std::sort(layout.begin(), layout.end());
  return layout;
}

TEST(ExactParallelProperties, SerialAndParallelAgreeOnEveryBuiltInArchitecture) {
  // Subset mode needs n < m, and the induced instances stay tabulable
  // (n <= 8) even on the 16/20-qubit machines, so a 3-qubit skeleton
  // exercises every built-in coupling map. The heavy-hex machines have
  // hundreds of connected 3-subsets each — one seed keeps the sweep quick
  // while still covering the subset shard scheduler at that scale. The Dp
  // engine goes through the same reduction as CDCL, so it must pick the
  // same winning subset at the same cost.
  for (const auto& name : arch::known_names()) {
    const auto cm = arch::by_name(name);
    const std::vector<std::uint64_t> seeds =
        cm.num_physical() > 20 ? std::vector<std::uint64_t>{1}
                               : std::vector<std::uint64_t>{1, 2, 3};
    for (const std::uint64_t seed : seeds) {
      const Circuit c = bench::random_cnot_circuit(3, 4, seed, "sweep/" + name);
      exact::ExactOptions opt;
      opt.engine = reason::EngineKind::Cdcl;
      opt.use_subsets = true;
      opt.budget = std::chrono::milliseconds(60000);
      opt.num_threads = 1;
      const auto serial = exact::map_exact(c, cm, opt);
      ASSERT_EQ(serial.status, reason::Status::Optimal) << name << " seed " << seed;
      opt.num_threads = 4;
      const auto parallel = exact::map_exact(c, cm, opt);
      EXPECT_EQ(parallel.status, serial.status) << name << " seed " << seed;
      EXPECT_EQ(parallel.cost_f, serial.cost_f) << name << " seed " << seed;
      EXPECT_EQ(parallel.swaps_inserted, serial.swaps_inserted) << name << " seed " << seed;
      EXPECT_EQ(parallel.cnots_reversed, serial.cnots_reversed) << name << " seed " << seed;
      EXPECT_EQ(parallel.instances_solved, serial.instances_solved) << name << " seed " << seed;
      EXPECT_EQ(parallel.initial_layout, serial.initial_layout) << name << " seed " << seed;
      EXPECT_EQ(parallel.mapped, serial.mapped) << name << " seed " << seed;
      EXPECT_TRUE(serial.verified) << serial.verify_message;
      opt.engine = reason::EngineKind::Dp;
      const auto dp = exact::map_exact(c, cm, opt);
      EXPECT_EQ(dp.status, serial.status) << name << " seed " << seed;
      EXPECT_EQ(dp.cost_f, serial.cost_f) << name << " seed " << seed;
      EXPECT_EQ(dp.instances_solved, serial.instances_solved) << name << " seed " << seed;
      EXPECT_EQ(sorted(dp.initial_layout), sorted(serial.initial_layout))
          << name << " seed " << seed;
      EXPECT_TRUE(dp.verified) << dp.verify_message;
    }
  }
}

// --- JSON-loaded architectures in the sweep (arch/coupling_json.hpp) -----

constexpr const char* kStar5Json = R"({
  "name": "star5",
  "qubits": 5,
  "directed": false,
  "edges": [[0, 1], [0, 2], [0, 3], [0, 4]]
})";

TEST(ArchitectureProperties, FingerprintDistinguishesJsonFromBuiltins) {
  // A JSON-loaded 5-qubit star must not alias any built-in (or synthetic)
  // 5-qubit architecture in caches keyed by CouplingMap::fingerprint().
  const auto star = arch::CouplingMap::from_json(kStar5Json);
  ASSERT_EQ(star.num_physical(), 5);
  const arch::CouplingMap rivals[] = {arch::ibm_qx2(), arch::ibm_qx4(),
                                      arch::linear(5), arch::ring(5),
                                      arch::clique(5)};
  for (const auto& rival : rivals) {
    ASSERT_EQ(rival.num_physical(), 5);
    EXPECT_NE(star.fingerprint(), rival.fingerprint()) << rival.name();
  }
  // Same structure loaded twice fingerprints identically — the name and the
  // error rates are deliberately not part of the structural fingerprint.
  auto renamed = arch::CouplingMap::from_json(kStar5Json, "other-name");
  arch::ErrorRates rates;
  rates.cnot[{0, 1}] = 0.05;
  renamed.set_error_rates(rates);
  EXPECT_EQ(star.fingerprint(), renamed.fingerprint());
  EXPECT_NE(star.noise_fingerprint(), renamed.noise_fingerprint());
}

TEST(ExactParallelProperties, SerialAndParallelAgreeOnJsonLoadedArchitecture) {
  const auto cm = arch::CouplingMap::from_json(kStar5Json);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Circuit c = bench::random_cnot_circuit(3, 4, seed, "sweep/star5");
    exact::ExactOptions opt;
    opt.engine = reason::EngineKind::Cdcl;
    opt.use_subsets = true;
    opt.budget = std::chrono::milliseconds(60000);
    opt.num_threads = 1;
    const auto serial = exact::map_exact(c, cm, opt);
    ASSERT_EQ(serial.status, reason::Status::Optimal) << "seed " << seed;
    opt.num_threads = 4;
    const auto parallel = exact::map_exact(c, cm, opt);
    EXPECT_EQ(parallel.cost_f, serial.cost_f) << "seed " << seed;
    EXPECT_EQ(parallel.mapped, serial.mapped) << "seed " << seed;
    EXPECT_TRUE(serial.verified) << serial.verify_message;
  }
}

}  // namespace
}  // namespace qxmap
