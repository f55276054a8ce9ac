// Pieces shared by the closed loop (main.cpp) and the socket ranks
// (socket_ranks.cpp): the per-op sample, one timed op, and the executor
// interface the closed loop drives.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "clique/transport.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Everything measured about one op. Trivially copyable: socket ranks send
/// theirs to the benchmark process over a pipe.
struct OpSample {
  std::int64_t wall_ns = 0;  ///< op wall as the closed loop saw it
  // Simulated cost; identical on every rank and across runs.
  std::int64_t rounds = 0;
  std::int64_t bound_rounds = 0;
  std::int64_t supersteps = 0;
  std::int64_t words = 0;
  std::int64_t schedule_hits = 0;
  std::int64_t schedule_misses = 0;
  std::int64_t dispatch_calls = 0;
  std::int64_t dispatch_sparse = 0;
  // Host time (summed over ranks where a workload has several).
  std::int64_t schedule_ns = 0;  ///< TrafficStats::schedule_wall_ns
  std::int64_t user_ns = 0;      ///< getrusage over the op
  std::int64_t sys_ns = 0;
  std::int64_t ctx_switches = 0;  ///< voluntary + involuntary
  /// Largest minus smallest rank exchange time; 0 with one rank.
  std::int64_t exchange_skew_ns = 0;
  OpLayers layers;  ///< traced ops only
  std::int32_t threw = 0;  ///< the library threw; see the error text
};

/// Adds b's host time and layer windows to a. Simulated cost and wall are
/// left alone: every rank charges the same cost, and the closed loop times
/// the op itself.
void add_host_time(OpSample& a, const OpSample& b);

/// True when the simulated cost of two runs agrees exactly.
[[nodiscard]] bool same_sim_cost(const OpSample& a, const OpSample& b);

/// Runs the prepared op once. `backend` builds the data plane (empty: the
/// default ArenaTransport); with a `tracer` it is wrapped in the tracing
/// decorator. Throws what the library throws.
[[nodiscard]] OpSample run_op(
    Workload& w, std::uint64_t op,
    const cca::clique::TransportScope::Factory& backend, Tracer* tracer);

/// Peak resident set of this process, in KiB.
[[nodiscard]] std::int64_t peak_rss_kb();

/// A rank died, stalled past its deadline, or broke the protocol.
struct RankFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What the closed loop drives: in-process or over socket ranks.
class Executor {
 public:
  virtual ~Executor() = default;
  /// Generates op `op`'s inputs and references (untimed).
  virtual void prepare(std::uint64_t op) = 0;
  /// Runs the prepared op, traced or not (timed).
  virtual OpSample run(bool traced) = 0;
  /// The oracle's verdict on the last run, over every rank (untimed).
  virtual Check check() = 0;
  /// Ends the run: final rank checks and reaping. Adds the ranks' spans
  /// and rollups; returns the summed peak RSS of every process in KiB.
  virtual std::int64_t finish(std::vector<std::vector<Span>>& spans,
                              Rollup& rollup, std::int64_t& dropped) = 0;
};

/// The socket backend: `nprocs` ranks forked from this process, meshed
/// over localhost TCP on kernel-assigned ports, each running `kind` with
/// its shard of the clique. Every wait is bounded by `deadline_ns`
/// (now_ns() clock); a rank that misses it fails the run with RankFailure
/// and every rank is killed and reaped.
[[nodiscard]] std::unique_ptr<Executor> make_socket_executor(
    const std::string& kind, std::uint64_t seed, int nprocs,
    std::int64_t deadline_ns);

}  // namespace perfbench
