#include "harness.hpp"

#include <sys/resource.h>

#include <optional>

namespace perfbench {

namespace clique = cca::clique;

namespace {

struct Usage {
  std::int64_t user_ns = 0;
  std::int64_t sys_ns = 0;
  std::int64_t ctx_switches = 0;
};

Usage usage_now() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& t) {
    return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(t.tv_usec) * 1'000;
  };
  return {ns(ru.ru_utime), ns(ru.ru_stime), ru.ru_nvcsw + ru.ru_nivcsw};
}

}  // namespace

void add_host_time(OpSample& a, const OpSample& b) {
  a.schedule_ns += b.schedule_ns;
  a.user_ns += b.user_ns;
  a.sys_ns += b.sys_ns;
  a.ctx_switches += b.ctx_switches;
  auto& l = a.layers;
  l.op_ns += b.layers.op_ns;
  l.stage_ns += b.layers.stage_ns;
  l.exchange_ns += b.layers.exchange_ns;
  l.allgather_ns += b.layers.allgather_ns;
  l.between_ns += b.layers.between_ns;
  l.stage_calls += b.layers.stage_calls;
  l.supersteps += b.layers.supersteps;
  l.words += b.layers.words;
  l.shapes += b.layers.shapes;
  l.shapes_repeat += b.layers.shapes_repeat;
}

bool same_sim_cost(const OpSample& a, const OpSample& b) {
  return a.rounds == b.rounds && a.bound_rounds == b.bound_rounds &&
         a.supersteps == b.supersteps && a.words == b.words &&
         a.schedule_hits == b.schedule_hits &&
         a.schedule_misses == b.schedule_misses &&
         a.dispatch_calls == b.dispatch_calls &&
         a.dispatch_sparse == b.dispatch_sparse;
}

OpSample run_op(Workload& w, std::uint64_t op,
                const clique::TransportScope::Factory& backend,
                Tracer* tracer) {
  clique::TransportScope::Factory factory = backend;
  if (tracer != nullptr)
    factory = [&backend, tracer](int n) {
      return traced(backend ? backend(n)
                            : std::make_unique<clique::ArenaTransport>(n),
                    *tracer);
    };
  std::optional<clique::TransportScope> scope;
  if (factory) scope.emplace(factory);

  OpSample s;
  OpOutcome out;
  const auto u0 = usage_now();
  if (tracer != nullptr) {
    tracer->begin_op(op);
    out = w.run();
    s.layers = tracer->end_op();
    s.wall_ns = s.layers.op_ns;
  } else {
    const auto t0 = now_ns();
    out = w.run();
    s.wall_ns = now_ns() - t0;
  }
  const auto u1 = usage_now();

  const auto& t = out.traffic;
  s.rounds = t.rounds;
  s.bound_rounds = t.bound_rounds;
  s.supersteps = t.supersteps;
  s.words = t.total_words;
  s.schedule_hits = t.schedule_hits;
  s.schedule_misses = t.schedule_misses;
  s.dispatch_calls = out.dispatch_calls;
  s.dispatch_sparse = out.dispatch_sparse;
  s.schedule_ns = t.schedule_wall_ns;
  s.user_ns = u1.user_ns - u0.user_ns;
  s.sys_ns = u1.sys_ns - u0.sys_ns;
  s.ctx_switches = u1.ctx_switches - u0.ctx_switches;
  return s;
}

std::int64_t peak_rss_kb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

}  // namespace perfbench
