#include "workloads.hpp"

#include <algorithm>
#include <cstdio>

#include "core/apsp.hpp"
#include "core/color_coding.hpp"
#include "core/mm.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"
#include "matrix/codec.hpp"
#include "matrix/ops.hpp"
#include "matrix/semiring.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using cca::Graph;
using cca::Matrix;
using cca::MinPlusSemiring;
using cca::clique::NodeSpan;

/// Seed of op `op`'s inputs: a pure function of the workload seed.
std::uint64_t op_seed(std::uint64_t seed, std::uint64_t op) {
  return cca::splitmix64(cca::splitmix64(seed) ^ (op * 0x9e3779b97f4a7c15ULL));
}

/// FNV-1a over the owned rows.
template <typename V>
std::uint64_t digest_rows(const Matrix<V>& m, int lo, int hi,
                          std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (int u = lo; u < hi; ++u)
    for (int v = 0; v < m.cols(); ++v) {
      h ^= static_cast<std::uint64_t>(m(u, v));
      h *= 0x100000001b3ULL;
    }
  return h;
}

Check mismatch(const char* what, int u, int v, long long got,
               long long want) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s(%d,%d): got %lld, want %lld", what, u, v,
                got, want);
  return {false, buf, 0};
}

/// One-shot min-plus mm_semiring_3d at n = 216 on a fresh Network per op,
/// so every op stages the same demand shapes on a cold schedule cache.
class MmCold final : public Workload {
 public:
  explicit MmCold(std::uint64_t seed) : seed_(seed) {}

  void prepare(std::uint64_t op) override {
    cca::Rng rng(op_seed(seed_, op));
    for (auto* m : {&a_, &b_})
      for (int i = 0; i < kN; ++i)
        for (int j = 0; j < kN; ++j) (*m)(i, j) = rng.next_in(0, 1000);
    ref_ = cca::multiply(MinPlusSemiring{}, a_, b_);
  }

  OpOutcome run() override {
    cca::clique::Network net(kN);
    out_ = cca::core::mm_semiring_3d(net, MinPlusSemiring{}, cca::I64Codec{}, a_,
                               b_);
    return {net.stats(), 0, 0};
  }

  [[nodiscard]] Check check(NodeSpan owned) const override {
    const int hi = std::min(owned.end, kN);
    for (int u = owned.begin; u < hi; ++u)
      for (int v = 0; v < kN; ++v)
        if (out_(u, v) != ref_(u, v))
          return mismatch("product", u, v, out_(u, v), ref_(u, v));
    return {true, {}, digest_rows(out_, owned.begin, hi)};
  }

  [[nodiscard]] int clique_n() const override { return kN; }

 private:
  static constexpr int kN = 216;
  std::uint64_t seed_;
  Matrix<std::int64_t> a_{kN, kN, 0}, b_{kN, kN, 0}, ref_{kN, kN, 0},
      out_{kN, kN, 0};
};

/// Same edges as g, with fresh uniform weights in [1, 20].
Graph reweighted(const Graph& g, cca::Rng& rng) {
  auto out = Graph::undirected(g.n());
  for (int u = 0; u < g.n(); ++u)
    for (const auto& [v, w] : g.out_arcs(u))
      if (u < v) out.add_edge(u, v, rng.next_in(1, 20));
  return out;
}

/// apsp_semiring (Auto) at n = 125, alternating uniform sparse graphs
/// (m = 4n edges, nnz = 8n) and Chung-Lu power-law graphs (m ~ 3n,
/// exponent 2.2), weights in [1, 20].
class Apsp final : public Workload {
 public:
  explicit Apsp(std::uint64_t seed) : seed_(seed) {}

  void prepare(std::uint64_t op) override {
    const auto s = op_seed(seed_, op);
    cca::Rng rng(s ^ 0x77);
    g_ = op % 2 == 0 ? reweighted(cca::random_sparse_graph(kN, 4 * kN, s), rng)
                     : reweighted(cca::power_law_graph(kN, 3 * kN, 2.2, s), rng);
    ref_ = cca::ref_apsp(g_);
  }

  OpOutcome run() override {
    out_ = cca::core::apsp_semiring(g_, cca::core::MmKind::Auto);
    const auto sparse = std::count(out_.engine_trace.begin(),
                                   out_.engine_trace.end(),
                                   cca::core::AutoEngineChoice::Sparse);
    return {out_.traffic,
            static_cast<std::int64_t>(out_.engine_trace.size()),
            static_cast<std::int64_t>(sparse)};
  }

  /// Distances must equal Floyd-Warshall's; every next hop must be a
  /// neighbour on a shortest path (checked against the reference distances,
  /// so a rank needs no rows it does not own).
  [[nodiscard]] Check check(NodeSpan owned) const override {
    const int hi = std::min(owned.end, kN);
    if (out_.dist.rows() != kN || out_.next_hop.rows() != kN)
      return {false, "output has the wrong shape", 0};
    for (int u = owned.begin; u < hi; ++u)
      for (int v = 0; v < kN; ++v) {
        const auto d = ref_(u, v);
        if (out_.dist(u, v) != d)
          return mismatch("dist", u, v, out_.dist(u, v), d);
        const int h = out_.next_hop(u, v);
        const bool none = u == v || MinPlusSemiring::is_inf(d);
        const bool on_path =
            !none && h >= 0 && h < kN && g_.has_arc(u, h) &&
            g_.arc_weight(u, h) + ref_(h, v) == d;
        if (none ? h != -1 : !on_path)
          return mismatch("next_hop", u, v, h, -1);
      }
    return {true, {},
            digest_rows(out_.next_hop, owned.begin, hi,
                        digest_rows(out_.dist, owned.begin, hi))};
  }

  [[nodiscard]] int clique_n() const override {
    return cca::core::semiring_clique_size(kN);
  }

 private:
  static constexpr int kN = 125;
  std::uint64_t seed_;
  Graph g_ = Graph::undirected(kN);
  Matrix<std::int64_t> ref_{kN, kN, 0};
  cca::core::ApspOutcome out_;
};

/// detect_k_cycle_cc at n = 16, k = 5 with one colouring trial per op, on
/// planted-cycle graphs (noise p = 0.1). Even ops plant a 5-cycle, odd ops
/// a 6-cycle, so the reference answer varies and the one-sided oracle
/// (found implies a 5-cycle exists) has cases to catch.
class KCycle final : public Workload {
 public:
  explicit KCycle(std::uint64_t seed) : seed_(seed) {}

  void prepare(std::uint64_t op) override {
    detect_seed_ = op_seed(seed_, op);
    g_ = cca::planted_cycle_graph(kN, op % 2 == 0 ? kK : kK + 1, 0.1,
                                  detect_seed_ ^ 0x5);
    ref_ = cca::ref_has_k_cycle(g_, kK);
  }

  OpOutcome run() override {
    out_ = cca::core::detect_k_cycle_cc(g_, kK, detect_seed_,
                                        /*max_trials=*/1);
    return {out_.traffic, 0, 0};
  }

  [[nodiscard]] Check check(NodeSpan) const override {
    if (out_.trials != 1)
      return {false, "detect_k_cycle_cc ran " + std::to_string(out_.trials) +
                         " trials, want 1",
              0};
    if (out_.found && !ref_)
      return {false, "reported a 5-cycle the reference does not find", 0};
    return {true, {}, out_.found ? 1u : 2u};
  }

  [[nodiscard]] int clique_n() const override { return kN; }

 private:
  static constexpr int kN = 16;
  static constexpr int kK = 5;
  std::uint64_t seed_;
  std::uint64_t detect_seed_ = 0;
  Graph g_ = Graph::undirected(kN);
  bool ref_ = false;
  cca::core::DetectOutcome out_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& kind,
                                        std::uint64_t seed) {
  if (kind == "mm_cold") return std::make_unique<MmCold>(seed);
  if (kind == "apsp") return std::make_unique<Apsp>(seed);
  if (kind == "kcycle") return std::make_unique<KCycle>(seed);
  return nullptr;
}

}  // namespace perfbench
