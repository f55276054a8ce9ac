// perfbench_run: the repo benchmark's measuring program.
//
//   perfbench_run --workload W --seed S --seconds T --trace 0|1
//                 [--trace-out FILE] [--min-ops N]
//
// Runs workload W as a closed loop (one client; op i+1 is issued only after
// op i returns) for at least T seconds and at least N ops, checks every
// op's outputs, and prints one JSON object of raw measurements on stdout
// (perfbench/run.py turns it into the reported metrics).
//
//   --trace 0  untraced ops; per-op wall and simulated cost.
//   --trace 1  every input runs twice, traced and untraced in alternating
//              order: the traced twin gives the per-layer windows, the
//              untraced twin the resource usage and the tracing overhead,
//              and the two must agree exactly (results and TrafficStats).
//              Spans go to FILE as Chrome trace-event JSON.
//
// Set-up (input generation, rank fork + mesh connect, one warm-up op) is
// repeated kSetups times and timed each time.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 9;
constexpr std::uint64_t kWarmupOp = std::uint64_t{1} << 40;
constexpr std::size_t kSpanCap = 50000;
constexpr std::int64_t kSecond = 1'000'000'000;
/// Measuring stops here whatever --seconds says, so that teardown and
/// output fit in the 180 s a run may take.
constexpr std::int64_t kHardStopNs = 150 * kSecond;

struct Config {
  const char* name;
  const char* kind;  // make_workload kind
  int ranks;         // 1 = in-process arena
};
constexpr Config kConfigs[] = {
    {"mm_cold", "mm_cold", 1},
    {"apsp_arena", "apsp", 1},
    {"apsp_socket4", "apsp", 4},
    {"kcycle", "kcycle", 1},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
  std::int64_t min_ops = 100;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_run: %s\nusage: perfbench_run --workload "
               "{mm_cold,apsp_arena,apsp_socket4,kcycle} --seed N --seconds T "
               "--trace 0|1 [--trace-out FILE] [--min-ops N]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const auto val = [&]() -> const char* {
      if (i + 1 >= argc) usage("flag without a value");
      return argv[++i];
    };
    const std::string f = argv[i];
    if (f == "--workload")
      a.workload = val();
    else if (f == "--seed")
      a.seed = std::strtoull(val(), nullptr, 10);
    else if (f == "--seconds")
      a.seconds = std::atof(val());
    else if (f == "--trace")
      a.trace = std::atoi(val());
    else if (f == "--trace-out")
      a.trace_out = val();
    else if (f == "--min-ops")
      a.min_ops = std::atoll(val());
    else
      usage(("unknown flag " + f).c_str());
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (a.min_ops < 1) usage("--min-ops must be at least 1");
  return a;
}

class LocalExecutor final : public Executor {
 public:
  LocalExecutor(const std::string& kind, std::uint64_t seed, Tracer& tracer)
      : w_(make_workload(kind, seed)), tracer_(tracer) {}

  void prepare(std::uint64_t op) override {
    op_ = op;
    w_->prepare(op);
  }
  OpSample run(bool traced) override {
    return run_op(*w_, op_, {}, traced ? &tracer_ : nullptr);
  }
  Check check() override { return w_->check({0, w_->clique_n()}); }
  std::int64_t finish(std::vector<std::vector<Span>>& spans, Rollup& rollup,
                      std::int64_t& dropped) override {
    spans.push_back(tracer_.spans());
    rollup = tracer_.rollup();
    dropped = tracer_.spans_dropped();
    return peak_rss_kb();
  }

 private:
  std::unique_ptr<Workload> w_;
  Tracer& tracer_;
  std::uint64_t op_ = 0;
};

/// Sums over a set of ops.
struct Sums {
  std::int64_t ops = 0;
  OpSample s;

  void add(const OpSample& x) {
    ++ops;
    add_host_time(s, x);
    s.wall_ns += x.wall_ns;
    s.rounds += x.rounds;
    s.bound_rounds += x.bound_rounds;
    s.supersteps += x.supersteps;
    s.words += x.words;
    s.schedule_hits += x.schedule_hits;
    s.schedule_misses += x.schedule_misses;
    s.dispatch_calls += x.dispatch_calls;
    s.dispatch_sparse += x.dispatch_sparse;
    s.exchange_skew_ns += x.exchange_skew_ns;
  }
};

struct Run {
  std::vector<double> setup_s;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::string aborted;
  // --trace 0: per untraced op, in op order.
  std::vector<std::int64_t> wall_ns, rounds, words;
  // --trace 1
  Sums traced, untraced;
  std::int64_t peak_rss_kb = 0;
  std::vector<std::vector<Span>> spans;
  Rollup rollup{};
  std::int64_t spans_dropped = 0;

  void fail(std::string why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(why));
  }
};

/// One attempted op: run, then check (untimed). Counts failures.
OpSample attempt(Executor& ex, bool traced, Run& run, Check& verdict) {
  ++run.attempted;
  OpSample s;
  try {
    s = ex.run(traced);
  } catch (const RankFailure&) {
    throw;
  } catch (const std::exception& e) {
    run.fail(std::string("threw: ") + e.what());
    s.threw = 1;
    return s;
  }
  verdict = ex.check();
  if (!verdict.ok) run.fail(verdict.why);
  return s;
}

void measure(Executor& ex, const Args& args, std::int64_t t_start,
             Run& run) {
  const auto measure_end =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  for (std::uint64_t op = 0;; ++op) {
    const auto now = now_ns();
    if (now >= t_start + kHardStopNs) break;
    if (now >= measure_end && static_cast<std::int64_t>(op) >= args.min_ops)
      break;
    ex.prepare(op);
    if (args.trace == 0) {
      Check v;
      const auto s = attempt(ex, false, run, v);
      if (s.threw != 0) continue;
      run.wall_ns.push_back(s.wall_ns);
      run.rounds.push_back(s.rounds);
      run.words.push_back(s.words);
      continue;
    }
    // Traced and untraced twins of one input, alternating which goes first.
    const bool traced_first = op % 2 == 1;
    Check v1, v2;
    const auto s1 = attempt(ex, traced_first, run, v1);
    const auto s2 = attempt(ex, !traced_first, run, v2);
    if (s1.threw != 0 || s2.threw != 0 || !v1.ok || !v2.ok) continue;
    if (!same_sim_cost(s1, s2) || v1.digest != v2.digest) {
      run.fail("op " + std::to_string(op) +
               ": traced and untraced runs differ (results or TrafficStats)");
      continue;
    }
    run.traced.add(traced_first ? s1 : s2);
    run.untraced.add(traced_first ? s2 : s1);
  }
}

std::unique_ptr<Executor> make_executor(const Config& c, std::uint64_t seed,
                                        Tracer& tracer,
                                        std::int64_t deadline) {
  if (c.ranks == 1) return std::make_unique<LocalExecutor>(c.kind, seed, tracer);
  return make_socket_executor(c.kind, seed, c.ranks, deadline);
}

/// Set-up, kSetups times; the last executor is kept for measuring.
std::unique_ptr<Executor> set_up(const Config& c, std::uint64_t seed,
                                 Tracer& tracer, std::int64_t deadline,
                                 Run& run, OpSample& warm) {
  std::unique_ptr<Executor> ex;
  for (int i = 0; i < kSetups; ++i) {
    if (ex) {
      std::vector<std::vector<Span>> spans;
      Rollup rollup{};
      std::int64_t dropped = 0;
      ex->finish(spans, rollup, dropped);
      ex.reset();
    }
    const auto t0 = now_ns();
    ex = make_executor(c, seed, tracer, deadline);
    ex->prepare(kWarmupOp + static_cast<std::uint64_t>(i));
    warm = ex->run(false);
    const auto verdict = ex->check();
    run.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!verdict.ok) throw std::runtime_error("warm-up op failed: " + verdict.why);
  }
  return ex;
}

/// apsp_socket4 only: the last warm-up op's simulated cost must equal an
/// in-process ArenaTransport run of the same input.
void cross_check_arena(const Config& c, std::uint64_t seed,
                       const OpSample& warm, Run& run) {
  auto w = make_workload(c.kind, seed);
  const auto op = kWarmupOp + kSetups - 1;
  w->prepare(op);
  const auto oracle = run_op(*w, op, {}, nullptr);
  if (!same_sim_cost(warm, oracle))
    run.fail("socket ranks charged a different simulated cost than the "
             "in-process arena on the same input");
}

void print_list(const char* key, const std::vector<std::int64_t>& v) {
  std::printf("\"%s\":[", key);
  for (std::size_t i = 0; i < v.size(); ++i)
    std::printf("%s%lld", i == 0 ? "" : ",", static_cast<long long>(v[i]));
  std::printf("],");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

void print_sums(const char* key, const Sums& x) {
  const auto& s = x.s;
  const auto& l = s.layers;
  const std::pair<const char*, std::int64_t> fields[] = {
      {"ops", x.ops},
      {"wall_ns", s.wall_ns},
      {"rounds", s.rounds},
      {"bound_rounds", s.bound_rounds},
      {"supersteps", s.supersteps},
      {"words", s.words},
      {"schedule_hits", s.schedule_hits},
      {"schedule_misses", s.schedule_misses},
      {"dispatch_calls", s.dispatch_calls},
      {"dispatch_sparse", s.dispatch_sparse},
      {"schedule_ns", s.schedule_ns},
      {"user_ns", s.user_ns},
      {"sys_ns", s.sys_ns},
      {"ctx_switches", s.ctx_switches},
      {"exchange_skew_ns", s.exchange_skew_ns},
      {"op_ns", l.op_ns},
      {"stage_ns", l.stage_ns},
      {"exchange_ns", l.exchange_ns},
      {"allgather_ns", l.allgather_ns},
      {"between_ns", l.between_ns},
      {"stage_calls", l.stage_calls},
      {"delivers", l.supersteps},
      {"delivered_words", l.words},
      {"shapes", l.shapes},
      {"shapes_repeat", l.shapes_repeat},
  };
  std::printf("\"%s\":{", key);
  for (std::size_t i = 0; i < std::size(fields); ++i)
    std::printf("%s\"%s\":%lld", i == 0 ? "" : ",", fields[i].first,
                static_cast<long long>(fields[i].second));
  std::printf("},");
}

void print_raw(const Args& a, const Config& c, int threads, const Run& r) {
  std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%d,",
              json_string(a.workload).c_str(),
              static_cast<unsigned long long>(a.seed), a.trace);
  std::printf(
      "\"env\":{\"nproc\":%ld,\"ranks\":%d,\"cca_threads_per_rank\":%d,"
      "\"compiler\":%s,\"build_type\":%s},",
      ::sysconf(_SC_NPROCESSORS_ONLN), c.ranks, threads,
      json_string(PERFBENCH_COMPILER).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str());
  std::printf("\"setup_s\":[");
  for (std::size_t i = 0; i < r.setup_s.size(); ++i)
    std::printf("%s%.9f", i == 0 ? "" : ",", r.setup_s[i]);
  std::printf("],\"attempted\":%lld,\"failed\":%lld,\"errors\":[",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.errors.size(); ++i)
    std::printf("%s%s", i == 0 ? "" : ",", json_string(r.errors[i]).c_str());
  std::printf("],\"aborted\":%s,", json_string(r.aborted).c_str());
  print_list("wall_ns", r.wall_ns);
  print_list("rounds", r.rounds);
  print_list("words", r.words);
  print_sums("traced", r.traced);
  print_sums("untraced", r.untraced);
  std::printf("\"rollup_self_ns\":{");
  for (std::size_t k = 0; k < r.rollup.size(); ++k)
    std::printf("%s\"%s\":%lld", k == 0 ? "" : ",", kSpanNames[k],
                static_cast<long long>(r.rollup[k].self_ns));
  std::printf("},\"spans_dropped\":%lld,\"peak_rss_kb\":%lld}\n",
              static_cast<long long>(r.spans_dropped),
              static_cast<long long>(r.peak_rss_kb));
}

int main_impl(int argc, char** argv) {
  const auto t_start = now_ns();
  const Args args = parse(argc, argv);
  const Config* cfg = nullptr;
  for (const auto& c : kConfigs)
    if (args.workload == c.name) cfg = &c;
  if (cfg == nullptr) usage("unknown --workload");

  // Pin the worker count before the library first reads it: one thread
  // per socket rank, two in-process (fork-join stays on the path while the
  // slowest of many workers does not set every superstep's time). Either
  // way the threads of all ranks together never exceed the cores of a
  // machine with at least four.
  const long nproc = std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN));
  const int threads =
      cfg->ranks > 1 ? 1 : static_cast<int>(std::min(2L, nproc));
  ::setenv("CCA_THREADS", std::to_string(threads).c_str(), 1);
  ::signal(SIGPIPE, SIG_IGN);  // a dead rank shows up as EPIPE instead

  Tracer tracer(kSpanCap);
  Run run;
  const auto deadline = t_start + kHardStopNs;
  int status = 0;
  try {
    OpSample warm;
    auto ex = set_up(*cfg, args.seed, tracer, deadline, run, warm);
    if (cfg->ranks > 1) cross_check_arena(*cfg, args.seed, warm, run);
    try {
      measure(*ex, args, t_start, run);
      run.peak_rss_kb = ex->finish(run.spans, run.rollup, run.spans_dropped);
    } catch (const RankFailure& e) {
      run.aborted = e.what();
      run.fail(std::string("run aborted: ") + e.what());
      ex.reset();  // kills and reaps every rank
      status = 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: set-up failed: %s\n", e.what());
    return 1;
  }
  if (!run.aborted.empty())
    std::fprintf(stderr, "perfbench_run: %s\n", run.aborted.c_str());
  if (args.trace == 1 && !args.trace_out.empty() &&
      !write_chrome_trace(args.trace_out, run.spans, run.rollup,
                          run.spans_dropped))
    std::fprintf(stderr, "perfbench_run: cannot write %s\n",
                 args.trace_out.c_str());
  print_raw(args, *cfg, threads, run);
  return status;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main_impl(argc, argv); }
