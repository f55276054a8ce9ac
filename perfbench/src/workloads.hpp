// The benchmark's workloads: seeded input generation, the timed call into
// the library, and the output oracle. Inputs are a pure function of
// (workload seed, op index), so every socket rank regenerates the same
// inputs locally and apsp_arena / apsp_socket4 see identical ops.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "clique/network.hpp"

namespace perfbench {

/// What one op reports besides its outputs (the workload keeps those for
/// check()).
struct OpOutcome {
  cca::clique::TrafficStats traffic;
  std::int64_t dispatch_calls = 0;   ///< ApspOutcome::engine_trace entries
  std::int64_t dispatch_sparse = 0;  ///< ... that chose the sparse engine
};

/// Verdict of the output oracle on one op.
struct Check {
  bool ok = true;
  std::string why;  ///< first mismatch, when !ok
  std::uint64_t digest = 0;  ///< hash of the checked outputs
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates op `op`'s inputs and reference outputs. Untimed.
  virtual void prepare(std::uint64_t op) = 0;

  /// Runs the prepared op: the timed call into the library. Every Network
  /// it builds picks up the caller's clique::TransportScope, if any.
  virtual OpOutcome run() = 0;

  /// Checks the last run's outputs on the rows `owned` holds. Untimed.
  [[nodiscard]] virtual Check check(cca::clique::NodeSpan owned) const = 0;

  /// Clique size the ops run on (socket ranks shard it).
  [[nodiscard]] virtual int clique_n() const = 0;
};

/// `kind` is one of "mm_cold", "apsp", "kcycle"; nullptr otherwise.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& kind,
                                                      std::uint64_t seed);

}  // namespace perfbench
