#include "service/daemon.hpp"

#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "cache/cache.hpp"
#include "driver/supervisor.hpp"
#include "rsg/serialize.hpp"
#include "service/protocol.hpp"
#include "support/fault.hpp"
#include "support/io.hpp"
#include "support/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define PSA_SERVICE_HAS_SOCKETS 1
#include <csignal>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif
#else
#define PSA_SERVICE_HAS_SOCKETS 0
#endif

namespace psa::service {

#if PSA_SERVICE_HAS_SOCKETS

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

volatile std::sig_atomic_t g_drain_requested = 0;

void on_term_signal(int) { g_drain_requested = 1; }

/// Scoped SIGPIPE-ignore with sigaction save/restore. The protocol layer's
/// MSG_NOSIGNAL already makes our own sends SIGPIPE-free; this is
/// defense-in-depth for anything a handler's children write to an inherited
/// fd — and unlike the old `std::signal(SIGPIPE, SIG_IGN)` it hands the
/// process's previous disposition back when run_daemon returns, so a host
/// embedding the daemon keeps its own signal setup.
class ScopedSigpipeIgnore {
 public:
  ScopedSigpipeIgnore() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    ::sigemptyset(&ignore.sa_mask);
    saved_ok_ = ::sigaction(SIGPIPE, &ignore, &saved_) == 0;
  }
  ~ScopedSigpipeIgnore() {
    if (saved_ok_) (void)::sigaction(SIGPIPE, &saved_, nullptr);
  }
  ScopedSigpipeIgnore(const ScopedSigpipeIgnore&) = delete;
  ScopedSigpipeIgnore& operator=(const ScopedSigpipeIgnore&) = delete;

 private:
  struct sigaction saved_ {};
  bool saved_ok_ = false;
};

void log_line(const DaemonOptions& options, const std::string& line) {
  if (options.log) options.log(line);
}

/// Append-only request journal next to the cache (or the socket). Journal
/// failures never fail the daemon — but they are no longer silent either:
/// each dropped record is counted as an io degradation and logged once.
class ServiceJournal {
 public:
  explicit ServiceJournal(const DaemonOptions& options) : options_(&options) {
    const std::string dir =
        options.cache_dir.empty()
            ? fs::path(options.socket_path).parent_path().string()
            : options.cache_dir;
    if (dir.empty()) return;
    path_ = (fs::path(dir) / "service.journal").string();
    record("psa-service-journal v1");
  }

  void record(const std::string& line) {
    if (path_.empty()) return;
    const auto result = support::io::checked_append(path_, line + '\n');
    if (!result) {
      PSA_COUNT(support::Counter::kIoDegradations);
      log_line(*options_, "service journal degraded: " + result.error);
    }
  }

  /// The drain marker: a journal whose last line is "sealed" belonged to a
  /// daemon that exited gracefully with no request in flight.
  void seal() { record("sealed"); }

 private:
  const DaemonOptions* options_;
  std::string path_;
};

struct Handler {
  pid_t pid = -1;
  int conn_fd = -1;  // the parent's copy, for crash/deadline error frames
  Clock::time_point start;
  bool deadline_killed = false;
};

/// Bind the listening socket, recovering a stale socket file (bind says
/// in-use but nobody accepts connections there). -1 on failure.
int bind_listener(const DaemonOptions& options, std::string* error) {
  struct sockaddr_un addr {};
  addr.sun_family = AF_UNIX;
  if (options.socket_path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + options.socket_path;
    return -1;
  }
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = "cannot create socket";
    return -1;
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) !=
      0) {
    if (errno != EADDRINUSE) {
      *error = "cannot bind " + options.socket_path;
      ::close(fd);
      return -1;
    }
    // A socket file exists. A live daemon answers a connect; a dead one
    // refuses — then the file is stale and safe to reclaim.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    const bool live =
        probe >= 0 &&
        ::connect(probe, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof addr) == 0;
    if (probe >= 0) ::close(probe);
    if (live) {
      *error = "another daemon is already serving " + options.socket_path;
      ::close(fd);
      return -1;
    }
    ::unlink(options.socket_path.c_str());
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) !=
        0) {
      *error = "cannot rebind " + options.socket_path;
      ::close(fd);
      return -1;
    }
  }
  if (::listen(fd, 64) != 0) {
    *error = "cannot listen on " + options.socket_path;
    ::close(fd);
    ::unlink(options.socket_path.c_str());
    return -1;
  }
  return fd;
}

/// The handler-child body: one request in, a stream of frames out, exit.
/// Never returns.
[[noreturn]] void run_handler(int conn_fd, const DaemonOptions& options) {
#if defined(__linux__)
  // Die with the daemon: a SIGKILLed daemon must leave no orphan handlers
  // (the client then sees the stream tear and reconnects or falls back).
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  std::string error;
  Frame frame;
  if (!recv_frame(conn_fd, frame, options.io_timeout_ms, &error)) {
    ::_exit(0);  // client went away or sent garbage; nothing to answer
  }
  if (frame.type == MsgType::kPing) {
    (void)send_frame(conn_fd, MsgType::kPong, "", options.io_timeout_ms,
                     &error);
    ::_exit(0);
  }
  if (frame.type != MsgType::kRequest) {
    (void)send_frame(conn_fd, MsgType::kError, "expected a request frame",
                     options.io_timeout_ms, &error);
    ::_exit(0);
  }

  try {
    const ServiceRequest request = decode_request(frame.body);
    const support::FaultPlan plan = support::FaultPlan::from_env();

    // PSA_FAULT_AT sockdrop (docs/SERVICE.md): hang up without replying, as
    // a handler dying between accept and the first frame would. The client
    // must treat it as a connection reset — retry, then fall back.
    for (const driver::AnalysisUnit& unit : request.units) {
      if (plan.for_unit(unit.name) == support::FaultKind::kSockDrop) {
        ::close(conn_fd);
        ::_exit(0);
      }
    }

    driver::BatchOptions batch;
    batch.isolate = true;
    batch.jobs = options.jobs;
    batch.cache_dir = options.cache_dir;
    batch.engine = request.engine;
    batch.check = request.check;
    batch.strict_frontend = request.strict_frontend;
    batch.unit_timeout_ms = request.unit_timeout_ms;
    // Sweeping is the daemon parent's job (one sweeper, post-reap) — a
    // handler bounding the cache mid-batch could evict its own warm entries.

    const std::uint64_t total = request.units.size();
    std::uint64_t seq = 0;        // shared by unit/heartbeat/summary frames
    std::uint64_t done = 0;       // settled units (for heartbeats)
    std::uint64_t streamed = 0;   // unit_result frames actually delivered
    bool client_gone = false;
    Clock::time_point last_frame = Clock::now();

    // Deliver pre-encoded frame bytes. On a send failure the client is gone
    // (reset, or its own timeout): stop streaming but KEEP COMPUTING — every
    // finished unit still lands in the shared cache, which is what makes the
    // reconnecting client's re-request cheap.
    const auto stream_bytes = [&](const std::string& bytes) {
      if (client_gone) return;
      std::string send_error;
      if (!send_bytes(conn_fd, bytes, options.io_timeout_ms, &send_error)) {
        client_gone = true;
        return;
      }
      PSA_COUNT(support::Counter::kStreamFrames);
      last_frame = Clock::now();
    };

    batch.on_unit_done = [&](std::size_t index,
                             const driver::UnitReport& report) {
      ++done;
      const std::string bytes = encode_frame(
          MsgType::kUnitResult,
          encode_unit_result(++seq, static_cast<std::uint32_t>(index),
                             report));
      if (plan.for_unit(report.unit.name) == support::FaultKind::kStreamTear) {
        // PSA_FAULT_AT streamtear: half a frame, then hangup — the worst
        // mid-stream death. The client must discard the torn bytes, keep
        // every already-validated unit, and resume over a fresh connection.
        std::string send_error;
        (void)send_bytes(conn_fd,
                         std::string_view(bytes).substr(0, bytes.size() / 2),
                         options.io_timeout_ms, &send_error);
        ::shutdown(conn_fd, SHUT_RDWR);
        ::close(conn_fd);
        ::_exit(0);
      }
      stream_bytes(bytes);
      if (!client_gone) ++streamed;
    };

    batch.on_tick = [&]() {
      if (client_gone || options.heartbeat_ms == 0) return;
      const auto quiet =
          std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                                last_frame)
              .count();
      if (quiet < static_cast<std::int64_t>(options.heartbeat_ms)) return;
      HeartbeatFrame hb;
      hb.seq = ++seq;
      hb.units_done = done;
      hb.units_total = total;
      stream_bytes(encode_frame(MsgType::kHeartbeat, encode_heartbeat(hb)));
    };

    const driver::BatchResult result = driver::run_batch(request.units, batch);

    if (!client_gone) {
      SummaryFrame summary;
      summary.seq = ++seq;
      summary.isolated = result.isolated;
      summary.units_total = total;
      summary.units_streamed = streamed;
      stream_bytes(encode_frame(MsgType::kSummary, encode_summary(summary)));
    }
    ::_exit(0);
  } catch (const rsg::SnapshotError& e) {
    (void)send_frame(conn_fd, MsgType::kError, e.what(),
                     options.io_timeout_ms, &error);
    ::_exit(0);
  } catch (const std::exception& e) {
    (void)send_frame(conn_fd, MsgType::kError, e.what(),
                     options.io_timeout_ms, &error);
    ::_exit(1);
  }
}

/// Best-effort error frame on the parent's fd copy after a handler died
/// without replying. A short timeout: the client may already be gone.
void send_handler_error(int conn_fd, std::string_view what) {
  std::string error;
  (void)send_frame(conn_fd, MsgType::kError, what, 1000, &error);
}

}  // namespace

int run_daemon(const DaemonOptions& options) {
  std::string error;

  // Open + recover the cache before accepting anything, so a torn directory
  // (crashed previous daemon) is repaired exactly once, up front. The
  // handle stays open for the daemon's life: the parent is the sweeper.
  std::optional<cache::ResultCache> cache;
  cache::ResultCache::SweepLimits sweep_limits;
  sweep_limits.max_bytes = options.cache_max_bytes;
  sweep_limits.max_age_ms = options.cache_max_age_ms;
  const auto sweep_cache = [&](std::string_view when) {
    if (!cache || !sweep_limits.bounded()) return;
    const cache::ResultCache::SweepReport swept = cache->sweep(sweep_limits);
    if (!swept.ran) return;  // a concurrent sweeper holds the lock
    if (swept.evicted > 0 || swept.quarantined > 0) {
      std::ostringstream line;
      line << "serve: cache sweep (" << when << "): " << swept.evicted
           << " evicted, " << swept.quarantined << " quarantined, "
           << swept.bytes_after << " bytes kept";
      log_line(options, line.str());
    }
  };
  if (!options.cache_dir.empty()) {
    try {
      cache.emplace(options.cache_dir);
      const cache::ResultCache::RecoveryReport recovered = cache->recover();
      std::ostringstream line;
      line << "serve: cache " << options.cache_dir << ": "
           << recovered.entries_kept << " entries";
      if (!recovered.clean()) {
        line << ", swept " << recovered.tmp_removed << " tmp, quarantined "
             << recovered.quarantined;
      }
      log_line(options, line.str());
      sweep_cache("startup");
    } catch (const std::exception& e) {
      // Serve uncached rather than not at all: an unusable cache directory
      // costs warm-probe speed, never availability or correctness.
      PSA_COUNT(support::Counter::kIoDegradations);
      log_line(options, std::string("serve: cache unavailable, serving "
                                    "uncached: ") +
                            e.what());
      cache.reset();
    }
  }

  // Create the fork-shared io op counter before the first handler fork, so
  // the daemon tree numbers durable ops in one stream.
  support::io::ensure_initialized();

  const int listen_fd = bind_listener(options, &error);
  if (listen_fd < 0) {
    log_line(options, "serve: " + error);
    return 1;
  }

  const ScopedSigpipeIgnore sigpipe_guard;
  g_drain_requested = 0;
  std::signal(SIGTERM, on_term_signal);
  std::signal(SIGINT, on_term_signal);

  ServiceJournal journal(options);
  journal.record("start inflight=" + std::to_string(options.max_inflight) +
                 " queue=" + std::to_string(options.max_queued));
  log_line(options, "serve: listening on " + options.socket_path);

  const std::size_t max_inflight = std::max<std::size_t>(1, options.max_inflight);
  std::vector<Handler> handlers;
  std::deque<int> pending;  // accepted fds waiting for a handler slot (FIFO)

  const auto spawn = [&](int conn_fd) {
    PSA_COUNT(support::Counter::kServiceRequests);
    journal.record("accept");
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(listen_fd);
      run_handler(conn_fd, options);
    }
    if (pid < 0) {
      send_handler_error(conn_fd, "cannot fork request handler");
      ::close(conn_fd);
      journal.record("done forkfail");
      return;
    }
    Handler handler;
    handler.pid = pid;
    handler.conn_fd = conn_fd;
    handler.start = Clock::now();
    handlers.push_back(handler);
  };

  const auto reap = [&](bool killing_overdue) {
    bool reaped = false;
    for (std::size_t h = 0; h < handlers.size();) {
      Handler& handler = handlers[h];

      if (killing_overdue && options.request_deadline_ms > 0 &&
          !handler.deadline_killed) {
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - handler.start)
                .count();
        if (elapsed >= static_cast<std::int64_t>(options.request_deadline_ms)) {
          handler.deadline_killed = true;
          ::kill(handler.pid, SIGKILL);
          log_line(options, "serve: request deadline exceeded, killed handler");
        }
      }

      int status = 0;
      const pid_t r = ::waitpid(handler.pid, &status, WNOHANG);
      if (r != handler.pid) {
        ++h;
        continue;
      }
      const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      if (handler.deadline_killed) {
        send_handler_error(handler.conn_fd, "request deadline exceeded");
        journal.record("done deadline");
      } else if (!clean) {
        // The handler crashed (or exited reporting failure) mid-stream: the
        // client must hear an explicit error, not silence.
        send_handler_error(handler.conn_fd, "request handler died");
        journal.record("done crashed");
      } else {
        journal.record("done ok");
      }
      PSA_COUNT_N(support::Counter::kPhaseRequestWallNs,
                  static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - handler.start)
                          .count()));
      ::close(handler.conn_fd);
      handlers.erase(handlers.begin() + static_cast<std::ptrdiff_t>(h));
      reaped = true;
    }
    if (reaped) sweep_cache("post-request");
    // Freed slots pull waiting connections FIFO — the multiplexing step.
    while (handlers.size() < max_inflight && !pending.empty()) {
      const int conn_fd = pending.front();
      pending.pop_front();
      spawn(conn_fd);
    }
  };

  while (g_drain_requested == 0) {
    reap(/*killing_overdue=*/true);

    struct pollfd p {};
    p.fd = listen_fd;
    p.events = POLLIN;
    const int ready = ::poll(&p, 1, 50);
    if (ready <= 0) continue;  // timeout or EINTR: loop re-checks drain flag

    const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    if (conn_fd < 0) continue;

    if (handlers.size() < max_inflight) {
      spawn(conn_fd);
      continue;
    }
    if (pending.size() < options.max_queued) {
      // Park the connection; its request bytes sit in the socket buffer and
      // the handler reads them when a slot frees up. The client just sees a
      // longer wait for its first frame.
      journal.record("queued");
      log_line(options, "serve: saturated, queued connection (" +
                            std::to_string(pending.size() + 1) + " waiting)");
      pending.push_back(conn_fd);
      continue;
    }
    // Past both caps: shed explicitly so the client backs off instead of
    // stacking unboundedly behind a saturated daemon.
    PSA_COUNT(support::Counter::kServiceBusyRejections);
    journal.record("busy");
    log_line(options, "serve: busy, shedding request");
    std::string send_error;
    (void)send_frame(conn_fd, MsgType::kBusy, "", 1000, &send_error);
    ::close(conn_fd);
  }

  // Graceful drain: stop accepting, let in-flight requests finish, then
  // seal. The socket disappears first so new clients fail fast to their
  // local fallback instead of connecting to a daemon that won't answer.
  log_line(options, "serve: drain requested");
  ::close(listen_fd);
  ::unlink(options.socket_path.c_str());
  for (const int conn_fd : pending) {
    // Still-queued connections never got a handler; answer them explicitly.
    send_handler_error(conn_fd, "daemon draining");
    ::close(conn_fd);
  }
  pending.clear();
  const Clock::time_point drain_deadline =
      Clock::now() + std::chrono::milliseconds(options.drain_grace_ms);
  while (!handlers.empty() && Clock::now() < drain_deadline) {
    reap(/*killing_overdue=*/true);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (Handler& handler : handlers) {
    // Past the grace period: the drain must terminate anyway.
    ::kill(handler.pid, SIGKILL);
    ::waitpid(handler.pid, nullptr, 0);
    send_handler_error(handler.conn_fd, "daemon draining");
    ::close(handler.conn_fd);
  }
  handlers.clear();
  journal.seal();
  log_line(options, "serve: drained, journal sealed");
  return 0;
}

#else  // !PSA_SERVICE_HAS_SOCKETS

int run_daemon(const DaemonOptions& options) {
  if (options.log) options.log("serve: sockets unsupported on this platform");
  return 1;
}

#endif

}  // namespace psa::service
