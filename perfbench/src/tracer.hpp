// Benchmark-side tracing at the clique::Transport seam.
//
// A traced op runs every Network it builds over a TracingTransport: a
// decorator around the real data plane (ArenaTransport or SocketTransport)
// that forwards every call and timestamps the layer boundaries it can see
// from outside the library:
//
//   op start ......... first staging call ..... deliver() ..... return ......
//   |--- between ------|--------- stage --------|-- exchange --|-- between --
//
// "between" is what happens after a superstep's data has arrived and before
// the next one starts staging: Network's relay scheduling (charged to
// TrafficStats::schedule_wall_ns) plus node-local kernels, decode and
// dispatch bookkeeping. The harness splits it with the op's TrafficStats,
// so that for every traced op
//
//   op_ns == stage_ns + exchange_ns + schedule_ns + local_ns
//
// holds exactly. Staging runs on cca::parallel_for workers, so staging
// calls land in per-thread slots (no shared atomics on the hot path) and
// are merged once per superstep in deliver(), which the library keeps on
// one thread.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "clique/transport.hpp"

namespace perfbench {

[[nodiscard]] std::int64_t now_ns() noexcept;

/// Layer windows of one traced op on one process.
struct OpLayers {
  std::int64_t op_ns = 0;         ///< begin_op() .. end_op()
  std::int64_t stage_ns = 0;      ///< first staging call .. deliver()
  std::int64_t exchange_ns = 0;   ///< inside deliver() and allgather_blocks()
  std::int64_t allgather_ns = 0;  ///< the allgather_blocks() part of exchange
  std::int64_t between_ns = 0;    ///< the rest: scheduling + local compute
  std::int64_t stage_calls = 0;   ///< send / send_words / stage calls
  std::int64_t supersteps = 0;    ///< deliver() calls
  std::int64_t words = 0;         ///< DeliverySummary::total_words
  std::int64_t shapes = 0;        ///< distinct nonempty demand fingerprints
  std::int64_t shapes_repeat = 0; ///< of those, produced by an earlier op too
};

enum class SpanKind : std::uint8_t { Op, Superstep, Exchange, Allgather };
inline constexpr std::array<const char*, 4> kSpanNames = {
    "op", "superstep", "exchange", "allgather"};

/// One closed span. Trivially copyable: socket ranks ship them to the
/// benchmark process over a pipe.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t id = 0;
  std::int32_t parent = -1;  ///< -1 for op spans
  SpanKind kind = SpanKind::Op;
};

/// Per span kind: how many closed, their summed duration, and their summed
/// self time (duration minus the part covered by child spans).
struct RollupRow {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
using Rollup = std::array<RollupRow, kSpanNames.size()>;

/// Collects layer windows, spans and the self-time rollup of traced ops.
/// One per process; begin_op/end_op and every hook except on_stage() run
/// on the thread that drives the op.
class Tracer {
 public:
  /// Keeps at most `span_cap` spans in memory (later ones are counted in
  /// spans_dropped(); the rollup still covers them).
  explicit Tracer(std::size_t span_cap);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens op `op_index`; returns its start timestamp.
  std::int64_t begin_op(std::uint64_t op_index);
  /// Closes the open op; its end timestamp is start + returned op_ns.
  OpLayers end_op();

  // Hooks called by TracingTransport.
  void on_stage() noexcept;  // any thread
  void on_deliver(std::int64_t t0, std::int64_t t1, int n,
                  const cca::clique::DeliverySummary& sum);
  void on_allgather(std::int64_t t0, std::int64_t t1);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::int64_t spans_dropped() const noexcept {
    return dropped_;
  }
  [[nodiscard]] const Rollup& rollup() const noexcept { return rollup_; }

 private:
  void keep(const Span& s);
  void close(const Span& s, std::int64_t child_ns);
  [[nodiscard]] std::int32_t superstep_id();

  std::size_t span_cap_;
  std::vector<Span> spans_;
  std::int64_t dropped_ = 0;
  Rollup rollup_{};
  std::int32_t next_id_ = 0;

  bool in_op_ = false;
  std::uint64_t op_index_ = 0;
  std::int32_t op_id_ = -1;
  std::int64_t op_start_ = 0;
  std::int64_t prev_end_ = 0;         // end of the last deliver (or op start)
  std::int64_t op_child_ns_ = 0;      // covered by the op's child spans
  std::int32_t step_id_ = -1;         // superstep span id, once assigned
  std::int64_t step_child_ns_ = 0;    // allgathers inside the stage window
  OpLayers cur_;
  std::unordered_set<std::uint64_t> op_shapes_;
  std::unordered_map<std::uint64_t, std::uint64_t> first_op_of_shape_;
};

/// Wraps `inner` so that every call is forwarded and the layer boundaries
/// are reported to `tracer`, which must outlive the returned transport.
[[nodiscard]] std::unique_ptr<cca::clique::Transport> traced(
    std::unique_ptr<cca::clique::Transport> inner, Tracer& tracer);

/// Writes spans as one Chrome trace-event JSON file (chrome://tracing,
/// Perfetto). spans_by_rank[r] become process r; `rollup` and
/// `spans_dropped` go under "otherData". Returns false if the file cannot
/// be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<std::vector<Span>>& spans_by_rank,
                        const Rollup& rollup, std::int64_t spans_dropped);

}  // namespace perfbench
