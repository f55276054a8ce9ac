// The apsp_socket4 backend: P ranks forked from the benchmark process.
//
// Before forking, the benchmark process wires the full TCP mesh itself:
// for every rank pair it listens on 127.0.0.1 port 0, so the kernel picks
// a free port and concurrent runs cannot collide, connects, accepts, and
// closes the listener. Each child adopts its end of every connection with
// SocketMesh(rank, P, fds) and then serves a command pipe:
//
//   Prepare op -> generate op's inputs and references (untimed)
//   Run / RunTraced -> run the op under TransportScope(SocketTransport),
//                      reply with its OpSample (the timed part)
//   Check -> check the rank's owned rows against the reference (untimed)
//   Finish -> reply with peak RSS, failure count and spans, then exit
//             with status 0 iff every check passed
//
// SocketMesh waits are poll(..., -1), so a stalled rank would hang its
// peers forever. The benchmark process therefore bounds every read of a
// reply by a deadline; on a miss, a dead pipe or a rank that threw, it
// raises RankFailure, and the executor's destructor kills and reaps every
// rank.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <tuple>

#include "clique/socket_transport.hpp"
#include "harness.hpp"

namespace perfbench {

namespace clique = cca::clique;

namespace {

constexpr std::size_t kRankSpanCap = 20000;
constexpr std::int64_t kReplyTimeoutNs = 20'000'000'000;  // per reply
constexpr std::int64_t kExitTimeoutNs = 5'000'000'000;    // after Finish

enum class Cmd : std::uint32_t { Prepare, Run, RunTraced, Check, Finish };

struct CmdMsg {
  Cmd cmd = Cmd::Prepare;
  std::uint64_t op = 0;
};

struct RunReply {
  OpSample sample;
  char error[200] = {};
};

struct CheckReply {
  std::uint32_t ok = 0;
  std::uint64_t digest = 0;
  char why[200] = {};
};

struct FinishReply {
  std::int64_t peak_rss_kb = 0;
  std::int64_t failures = 0;
  std::int64_t spans_dropped = 0;
  std::uint64_t nspans = 0;
  Rollup rollup{};
};

void copy_text(char (&dst)[200], const std::string& src) {
  std::snprintf(dst, sizeof dst, "%s", src.c_str());
}

[[noreturn]] void sys_fail(const char* what) {
  throw RankFailure(std::string(what) + ": " + std::strerror(errno));
}

void write_all(int fd, const void* buf, std::size_t len) {
  const auto* p = static_cast<const char*>(buf);
  while (len > 0) {
    const auto w = ::write(fd, p, len);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) sys_fail("pipe write");
    p += w;
    len -= static_cast<std::size_t>(w);
  }
}

/// Blocking read of exactly len bytes; false on EOF.
bool read_all(int fd, void* buf, std::size_t len) {
  auto* p = static_cast<char*>(buf);
  while (len > 0) {
    const auto r = ::read(fd, p, len);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) sys_fail("pipe read");
    if (r == 0) return false;
    p += r;
    len -= static_cast<std::size_t>(r);
  }
  return true;
}

/// Reads exactly len bytes from each fds[i] into bufs[i], polling all of
/// them at once and giving up at deadline_ns. done(i) runs as soon as
/// fds[i]'s bytes are complete and may throw to fail fast.
template <typename Fn>
void read_each_by(const std::vector<int>& fds, const std::vector<char*>& bufs,
                  std::size_t len, std::int64_t deadline_ns, Fn&& done) {
  std::vector<std::size_t> got(fds.size(), 0);
  std::size_t pending = 0;
  for (std::size_t i = 0; i < fds.size(); ++i)
    if (len == 0)
      done(i);
    else
      ++pending;
  std::vector<pollfd> pfds;
  while (pending > 0) {
    const auto left_ms = (deadline_ns - now_ns()) / 1'000'000;
    pfds.clear();
    for (std::size_t i = 0; i < fds.size(); ++i)
      if (got[i] < len) pfds.push_back({fds[i], POLLIN, 0});
    if (left_ms <= 0) {
      std::string msg = "rank(s)";
      for (std::size_t i = 0; i < fds.size(); ++i)
        if (got[i] < len) msg.append(" ").append(std::to_string(i));
      throw RankFailure(msg.append(" missed the deadline (stalled)"));
    }
    const int pr = ::poll(pfds.data(), pfds.size(),
                          static_cast<int>(std::min<std::int64_t>(left_ms,
                                                                  1'000'000)));
    if (pr < 0 && errno == EINTR) continue;
    if (pr < 0) sys_fail("poll");
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (got[i] >= len) continue;
      const auto it = std::find_if(pfds.begin(), pfds.end(), [&](const pollfd& p) {
        return p.fd == fds[i];
      });
      if (it == pfds.end() || it->revents == 0) continue;
      const auto r = ::read(fds[i], bufs[i] + got[i], len - got[i]);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0)
        throw RankFailure("rank " + std::to_string(i) +
                          " died (reply pipe closed)");
      got[i] += static_cast<std::size_t>(r);
      if (got[i] == len) {
        --pending;
        done(i);
      }
    }
  }
}

/// One connected localhost TCP stream pair on a kernel-assigned port.
std::pair<int, int> tcp_pair() {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) sys_fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t alen = sizeof addr;
  const int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
  int afd = -1;
  if (cfd >= 0 &&
      ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::listen(lfd, 1) == 0 &&
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen) == 0 &&
      ::connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
    afd = ::accept(lfd, nullptr, nullptr);
  const int err = errno;
  ::close(lfd);
  if (afd < 0) {
    if (cfd >= 0) ::close(cfd);
    errno = err;
    sys_fail("loopback connect");
  }
  return {cfd, afd};
}

/// The body of one rank process. Returns its exit status.
int rank_main(const std::string& kind, std::uint64_t seed, int rank,
              int nprocs, std::vector<int> peer_fds, int cmd_fd,
              int reply_fd) {
  const auto mesh =
      std::make_shared<clique::SocketMesh>(rank, nprocs, std::move(peer_fds));
  const auto backend = clique::SocketTransport::factory(mesh);
  auto w = make_workload(kind, seed);
  const auto owned = clique::shard_span(w->clique_n(), nprocs, rank);
  Tracer tracer(kRankSpanCap);
  std::int64_t failures = 0;
  std::uint64_t op = 0;
  for (;;) {
    CmdMsg c;
    if (!read_all(cmd_fd, &c, sizeof c)) return 2;  // benchmark went away
    switch (c.cmd) {
      case Cmd::Prepare: {
        op = c.op;
        w->prepare(op);
        const std::uint32_t ack = 1;
        write_all(reply_fd, &ack, sizeof ack);
        break;
      }
      case Cmd::Run:
      case Cmd::RunTraced: {
        RunReply r;
        try {
          r.sample = run_op(*w, op, backend,
                            c.cmd == Cmd::RunTraced ? &tracer : nullptr);
        } catch (const std::exception& e) {
          r.sample.threw = 1;
          copy_text(r.error, e.what());
        }
        write_all(reply_fd, &r, sizeof r);
        if (r.sample.threw != 0) return 3;  // the mesh is out of step now
        break;
      }
      case Cmd::Check: {
        const auto v = w->check(owned);
        if (!v.ok) ++failures;
        CheckReply r;
        r.ok = v.ok ? 1 : 0;
        r.digest = v.digest;
        copy_text(r.why, v.why);
        write_all(reply_fd, &r, sizeof r);
        break;
      }
      case Cmd::Finish: {
        FinishReply f;
        f.peak_rss_kb = peak_rss_kb();
        f.failures = failures;
        f.spans_dropped = tracer.spans_dropped();
        f.nspans = tracer.spans().size();
        f.rollup = tracer.rollup();
        write_all(reply_fd, &f, sizeof f);
        write_all(reply_fd, tracer.spans().data(),
                  tracer.spans().size() * sizeof(Span));
        return failures == 0 ? 0 : 1;
      }
    }
  }
}

class SocketExecutor final : public Executor {
 public:
  SocketExecutor(const std::string& kind, std::uint64_t seed, int nprocs,
                 std::int64_t deadline_ns)
      : deadline_ns_(deadline_ns) {
    const auto P = static_cast<std::size_t>(nprocs);
    std::vector<std::vector<int>> mesh(P, std::vector<int>(P, -1));
    try {
      spawn(kind, seed, nprocs, mesh);
    } catch (...) {
      kill_all();
      close_all(mesh);
      throw;
    }
    close_all(mesh);
  }

  SocketExecutor(const SocketExecutor&) = delete;
  SocketExecutor& operator=(const SocketExecutor&) = delete;

  ~SocketExecutor() override { kill_all(); }

  void prepare(std::uint64_t op) override {
    broadcast({Cmd::Prepare, op});
    gather<std::uint32_t>([](std::size_t, const std::uint32_t&) {});
  }

  OpSample run(bool traced) override {
    const auto t0 = now_ns();
    broadcast({traced ? Cmd::RunTraced : Cmd::Run, 0});
    const auto got = gather<RunReply>([](std::size_t r, const RunReply& x) {
      if (x.sample.threw != 0)
        throw RankFailure("rank " + std::to_string(r) + " threw: " + x.error);
    });
    const auto t1 = now_ns();

    // Simulated cost from rank 0 (every rank must agree); host time and
    // layers summed over the ranks.
    OpSample m = got[0].sample;
    m.wall_ns = t1 - t0;
    m.schedule_ns = m.user_ns = m.sys_ns = m.ctx_switches = 0;
    m.layers = OpLayers{};
    std::int64_t ex_min = got[0].sample.layers.exchange_ns;
    std::int64_t ex_max = ex_min;
    sim_mismatch_.clear();
    for (std::size_t r = 0; r < got.size(); ++r) {
      const auto& s = got[r].sample;
      if (!same_sim_cost(s, got[0].sample))
        sim_mismatch_ = "rank " + std::to_string(r) +
                        " charged a different simulated cost than rank 0";
      add_host_time(m, s);
      ex_min = std::min(ex_min, s.layers.exchange_ns);
      ex_max = std::max(ex_max, s.layers.exchange_ns);
    }
    m.exchange_skew_ns = ex_max - ex_min;
    return m;
  }

  Check check() override {
    broadcast({Cmd::Check, 0});
    const auto got = gather<CheckReply>([](std::size_t, const CheckReply&) {});
    Check c;
    c.ok = sim_mismatch_.empty();
    c.why = sim_mismatch_;
    for (std::size_t r = 0; r < got.size(); ++r) {
      c.digest = (c.digest ^ got[r].digest) * 0x100000001b3ULL;
      if (got[r].ok == 0 && c.ok) {
        c.ok = false;
        c.why = "rank " + std::to_string(r) + ": " + got[r].why;
      }
    }
    return c;
  }

  std::int64_t finish(std::vector<std::vector<Span>>& spans, Rollup& rollup,
                      std::int64_t& dropped) override {
    broadcast({Cmd::Finish, 0});
    const auto got = gather<FinishReply>([](std::size_t, const FinishReply&) {});
    std::int64_t rss = peak_rss_kb();
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      const auto& f = got[r];
      std::vector<Span> mine(f.nspans);
      read_each_by({ranks_[r].reply}, {reinterpret_cast<char*>(mine.data())},
                   mine.size() * sizeof(Span), wait_deadline(),
                   [](std::size_t) {});
      spans.push_back(std::move(mine));
      for (std::size_t k = 0; k < rollup.size(); ++k) {
        rollup[k].count += f.rollup[k].count;
        rollup[k].total_ns += f.rollup[k].total_ns;
        rollup[k].self_ns += f.rollup[k].self_ns;
      }
      dropped += f.spans_dropped;
      rss += f.peak_rss_kb;
    }
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      const int status = reap(r);
      const int want = got[r].failures == 0 ? 0 : 1;
      if (!WIFEXITED(status) || WEXITSTATUS(status) != want)
        throw RankFailure("rank " + std::to_string(r) +
                          " exited with status " + std::to_string(status) +
                          " after reporting " +
                          std::to_string(got[r].failures) + " failed checks");
    }
    return rss;
  }

 private:
  struct Rank {
    pid_t pid = -1;
    int cmd = -1;    // write end of the command pipe
    int reply = -1;  // read end of the reply pipe
  };

  /// Wires the mesh into `mesh` and forks the ranks.
  void spawn(const std::string& kind, std::uint64_t seed, int nprocs,
             std::vector<std::vector<int>>& mesh) {
    const auto P = mesh.size();
    std::vector<int> all_fds;
    for (std::size_t i = 0; i < P; ++i)
      for (std::size_t j = i + 1; j < P; ++j) {
        std::tie(mesh[i][j], mesh[j][i]) = tcp_pair();
        all_fds.push_back(mesh[i][j]);
        all_fds.push_back(mesh[j][i]);
      }
    std::fflush(nullptr);  // children must not re-flush our buffers
    const pid_t parent = ::getpid();
    for (int r = 0; r < nprocs; ++r) {
      int cmd[2] = {-1, -1};
      int reply[2] = {-1, -1};
      if (::pipe(cmd) != 0) sys_fail("pipe");
      if (::pipe(reply) != 0) {
        ::close(cmd[0]);
        ::close(cmd[1]);
        sys_fail("pipe");
      }
      all_fds.insert(all_fds.end(), {cmd[0], cmd[1], reply[0], reply[1]});
      const pid_t pid = ::fork();
      if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) ::_exit(2);
        const auto& mine = mesh[static_cast<std::size_t>(r)];
        for (const int fd : all_fds)
          if (fd != cmd[0] && fd != reply[1] &&
              std::find(mine.begin(), mine.end(), fd) == mine.end())
            ::close(fd);
        int status = 3;
        try {
          status = rank_main(kind, seed, r, nprocs, mine, cmd[0], reply[1]);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench rank %d: %s\n", r, e.what());
        }
        std::fflush(nullptr);
        ::_exit(status);
      }
      ::close(cmd[0]);
      ::close(reply[1]);
      if (pid < 0) {
        ::close(cmd[1]);
        ::close(reply[0]);
        sys_fail("fork");
      }
      ranks_.push_back({pid, cmd[1], reply[0]});
    }
  }

  static void close_all(const std::vector<std::vector<int>>& mesh) {
    for (const auto& row : mesh)
      for (const int fd : row)
        if (fd >= 0) ::close(fd);
  }

  void kill_all() noexcept {
    for (auto& r : ranks_) {
      if (r.pid > 0) {
        ::kill(r.pid, SIGKILL);
        ::waitpid(r.pid, nullptr, 0);
      }
      ::close(r.cmd);
      ::close(r.reply);
    }
    ranks_.clear();
  }

  [[nodiscard]] std::int64_t wait_deadline() const {
    return std::min(deadline_ns_, now_ns() + kReplyTimeoutNs);
  }

  void broadcast(const CmdMsg& c) {
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      try {
        write_all(ranks_[r].cmd, &c, sizeof c);
      } catch (const RankFailure&) {
        throw RankFailure("rank " + std::to_string(r) +
                          " died (command pipe closed)");
      }
    }
  }

  /// One T-sized reply from every rank; on_reply(r, reply) runs as each
  /// arrives and may throw to fail fast.
  template <typename T, typename Fn>
  std::vector<T> gather(Fn&& on_reply) {
    std::vector<T> got(ranks_.size());
    std::vector<int> fds;
    std::vector<char*> bufs;
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      fds.push_back(ranks_[r].reply);
      bufs.push_back(reinterpret_cast<char*>(&got[r]));
    }
    read_each_by(fds, bufs, sizeof(T), wait_deadline(),
                 [&](std::size_t r) { on_reply(r, got[r]); });
    return got;
  }

  /// Waits for rank r to exit, bounded by the deadline; returns its status.
  int reap(std::size_t r) {
    auto& rk = ranks_[r];
    const auto until = std::min(deadline_ns_, now_ns() + kExitTimeoutNs);
    int status = 0;
    while (::waitpid(rk.pid, &status, WNOHANG) == 0) {
      if (now_ns() >= until)
        throw RankFailure("rank " + std::to_string(r) + " did not exit");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    rk.pid = -1;
    return status;
  }

  std::int64_t deadline_ns_;
  std::vector<Rank> ranks_;
  std::string sim_mismatch_;
};

}  // namespace

std::unique_ptr<Executor> make_socket_executor(const std::string& kind,
                                               std::uint64_t seed, int nprocs,
                                               std::int64_t deadline_ns) {
  return std::make_unique<SocketExecutor>(kind, seed, nprocs, deadline_ns);
}

}  // namespace perfbench
