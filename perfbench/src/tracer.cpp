#include "tracer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "clique/routing.hpp"

namespace perfbench {

namespace clique = cca::clique;

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Staging seen by one thread during one superstep.
struct alignas(64) StageSlot {
  std::uint64_t epoch = 0;
  std::int64_t first_ns = 0;
  std::int64_t calls = 0;
};

/// Process-wide slots. A thread leases one on its first staging call and
/// returns it when it exits; the contents outlive the thread, so the
/// deliver() that ends the superstep still merges them. parallel_for joins
/// its workers before deliver() runs, which orders their slot writes
/// before the merge.
class SlotRegistry {
 public:
  StageSlot* lease() {
    const std::lock_guard lock(mu_);
    if (!free_.empty()) {
      StageSlot* s = free_.back();
      free_.pop_back();
      return s;
    }
    slots_.push_back(std::make_unique<StageSlot>());
    return slots_.back().get();
  }

  void release(StageSlot* s) {
    const std::lock_guard lock(mu_);
    free_.push_back(s);
  }

  template <typename Fn>
  void for_each(Fn&& fn) {
    const std::lock_guard lock(mu_);
    for (auto& s : slots_) fn(*s);
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<StageSlot>> slots_;
  std::vector<StageSlot*> free_;
};

SlotRegistry& registry() {
  static SlotRegistry r;
  return r;
}

struct SlotLease {
  StageSlot* slot = nullptr;
  SlotLease() = default;
  SlotLease(const SlotLease&) = delete;
  SlotLease& operator=(const SlotLease&) = delete;
  ~SlotLease() {
    if (slot != nullptr) registry().release(slot);
  }
};
thread_local SlotLease t_lease;

/// The current superstep; bumped by every deliver().
std::atomic<std::uint64_t> g_epoch{1};

bool staging_started() {
  const auto e = g_epoch.load(std::memory_order_relaxed);
  bool started = false;
  registry().for_each([&](const StageSlot& s) { started |= s.epoch == e; });
  return started;
}

/// Forwards every Transport call to the wrapped backend and reports the
/// layer boundaries to the tracer.
class TracingTransport final : public clique::Transport {
 public:
  TracingTransport(std::unique_ptr<clique::Transport> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] int n() const noexcept override { return inner_->n(); }

  void send(clique::NodeId src, clique::NodeId dst,
            clique::Word w) override {
    tracer_.on_stage();
    inner_->send(src, dst, w);
  }
  void send_words(clique::NodeId src, clique::NodeId dst,
                  std::span<const clique::Word> ws) override {
    tracer_.on_stage();
    inner_->send_words(src, dst, ws);
  }
  [[nodiscard]] std::span<clique::Word> stage(clique::NodeId src,
                                              clique::NodeId dst,
                                              std::size_t nwords) override {
    tracer_.on_stage();
    return inner_->stage(src, dst, nwords);
  }

  [[nodiscard]] std::vector<clique::StagedPair> staged_snapshot()
      const override {
    return inner_->staged_snapshot();
  }
  [[nodiscard]] std::vector<clique::Demand> staged_meta() override {
    return inner_->staged_meta();
  }
  void discard_staged() override { inner_->discard_staged(); }

  clique::DeliverySummary deliver() override {
    const auto t0 = now_ns();
    auto sum = inner_->deliver();
    tracer_.on_deliver(t0, now_ns(), inner_->n(), sum);
    return sum;
  }

  [[nodiscard]] std::span<const clique::Word> inbox(
      clique::NodeId dst, clique::NodeId src) const override {
    return inner_->inbox(dst, src);
  }
  [[nodiscard]] std::vector<clique::Word> take_inbox(
      clique::NodeId dst, clique::NodeId src) override {
    return inner_->take_inbox(dst, src);
  }
  [[nodiscard]] std::uint64_t stage_generation(
      clique::NodeId src) const override {
    return inner_->stage_generation(src);
  }
  [[nodiscard]] std::uint64_t inbox_generation() const noexcept override {
    return inner_->inbox_generation();
  }
  [[nodiscard]] clique::NodeSpan owned() const noexcept override {
    return inner_->owned();
  }
  void allgather_blocks(std::span<clique::Word> data,
                        std::span<const std::size_t> offsets) override {
    const auto t0 = now_ns();
    inner_->allgather_blocks(data, offsets);
    tracer_.on_allgather(t0, now_ns());
  }

 private:
  std::unique_ptr<clique::Transport> inner_;
  Tracer& tracer_;
};

}  // namespace

Tracer::Tracer(std::size_t span_cap) : span_cap_(span_cap) {
  spans_.reserve(std::min<std::size_t>(span_cap_, 1 << 16));
}

std::int64_t Tracer::begin_op(std::uint64_t op_index) {
  in_op_ = true;
  op_index_ = op_index;
  op_id_ = next_id_++;
  cur_ = OpLayers{};
  op_shapes_.clear();
  op_child_ns_ = 0;
  step_id_ = -1;
  step_child_ns_ = 0;
  // Staging left over from before the op must not count as this op's.
  g_epoch.fetch_add(1, std::memory_order_relaxed);
  op_start_ = now_ns();
  prev_end_ = op_start_;
  return op_start_;
}

OpLayers Tracer::end_op() {
  const auto t_end = now_ns();
  cur_.between_ns += t_end - prev_end_;
  cur_.op_ns = t_end - op_start_;
  close({op_start_, t_end, op_id_, -1, SpanKind::Op}, op_child_ns_);
  in_op_ = false;
  return cur_;
}

void Tracer::on_stage() noexcept {
  StageSlot*& s = t_lease.slot;
  if (s == nullptr) s = registry().lease();
  const auto e = g_epoch.load(std::memory_order_relaxed);
  if (s->epoch != e) {
    s->epoch = e;
    s->first_ns = now_ns();
    s->calls = 0;
  }
  ++s->calls;
}

void Tracer::on_deliver(std::int64_t t0, std::int64_t t1, int n,
                        const clique::DeliverySummary& sum) {
  const auto e = g_epoch.load(std::memory_order_relaxed);
  std::int64_t first = t0;
  std::int64_t calls = 0;
  registry().for_each([&](const StageSlot& s) {
    if (s.epoch != e) return;
    first = std::min(first, s.first_ns);
    calls += s.calls;
  });
  g_epoch.fetch_add(1, std::memory_order_relaxed);
  if (!in_op_) return;

  // Clip the stage window to the op and to the previous superstep.
  const auto stage_start = std::clamp(first, prev_end_, t0);
  cur_.between_ns += stage_start - prev_end_;
  cur_.stage_ns += t0 - stage_start - step_child_ns_;
  cur_.exchange_ns += t1 - t0;
  cur_.stage_calls += calls;
  cur_.supersteps += 1;
  cur_.words += sum.total_words;

  const auto step = superstep_id();
  close({t0, t1, next_id_++, step, SpanKind::Exchange}, 0);
  close({stage_start, t1, step, op_id_, SpanKind::Superstep},
        (t1 - t0) + step_child_ns_);
  op_child_ns_ += t1 - stage_start;
  step_id_ = -1;
  step_child_ns_ = 0;

  if (!sum.demands.empty()) {
    const auto fp = clique::demand_fingerprint(n, sum.demands);
    if (op_shapes_.insert(fp).second) {
      ++cur_.shapes;
      const auto [it, inserted] = first_op_of_shape_.try_emplace(fp, op_index_);
      if (!inserted && it->second != op_index_) ++cur_.shapes_repeat;
    }
  }
  prev_end_ = t1;
}

void Tracer::on_allgather(std::int64_t t0, std::int64_t t1) {
  if (!in_op_) return;
  const auto dur = t1 - t0;
  cur_.exchange_ns += dur;
  cur_.allgather_ns += dur;
  if (staging_started()) {
    // Inside a stage window: a child of the superstep being staged.
    close({t0, t1, next_id_++, superstep_id(), SpanKind::Allgather}, 0);
    step_child_ns_ += dur;
  } else {
    close({t0, t1, next_id_++, op_id_, SpanKind::Allgather}, 0);
    op_child_ns_ += dur;
    cur_.between_ns -= dur;
  }
}

std::int32_t Tracer::superstep_id() {
  if (step_id_ < 0) step_id_ = next_id_++;
  return step_id_;
}

void Tracer::close(const Span& s, std::int64_t child_ns) {
  auto& row = rollup_[static_cast<std::size_t>(s.kind)];
  ++row.count;
  row.total_ns += s.end_ns - s.start_ns;
  row.self_ns += s.end_ns - s.start_ns - child_ns;
  if (spans_.size() < span_cap_)
    spans_.push_back(s);
  else
    ++dropped_;
}

std::unique_ptr<clique::Transport> traced(
    std::unique_ptr<clique::Transport> inner, Tracer& tracer) {
  return std::make_unique<TracingTransport>(std::move(inner), tracer);
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<std::vector<Span>>& spans_by_rank,
                        const Rollup& rollup, std::int64_t spans_dropped) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t base = 0;
  bool have_base = false;
  for (const auto& spans : spans_by_rank)
    for (const auto& s : spans)
      if (!have_base || s.start_ns < base) {
        base = s.start_ns;
        have_base = true;
      }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (std::size_t r = 0; r < spans_by_rank.size(); ++r) {
    for (const auto& s : spans_by_rank[r]) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%zu,\"tid\":0,"
                   "\"args\":{\"id\":%d,\"parent\":%d}}",
                   first ? "" : ",",
                   kSpanNames[static_cast<std::size_t>(s.kind)],
                   static_cast<double>(s.start_ns - base) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, r, s.id,
                   s.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n],\"otherData\":{\"spans_dropped\":%lld,\"self_ns\":{",
               static_cast<long long>(spans_dropped));
  for (std::size_t k = 0; k < rollup.size(); ++k)
    std::fprintf(f, "%s\"%s\":%lld", k == 0 ? "" : ",", kSpanNames[k],
                 static_cast<long long>(rollup[k].self_ns));
  std::fprintf(f, "}}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
