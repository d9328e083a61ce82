// sunfloord's server: socket front end over the JobEngine.
//
// One accept thread polls the listening socket plus a self-pipe; accepted
// connections are handed through a bounded util Channel to a small pool
// of connection-handler threads (back-pressure: when the hand-off channel
// is full the connection is answered with a "busy" rejection and closed,
// never queued unboundedly). Each handler serves line-delimited JSON
// requests (protocol.h) until the peer disconnects. A shard_run request
// bypasses the engine: the handler runs the slice itself
// (dist::run_shard_frame), so a coordinator's call waits while the
// worker is busy.
//
// Shutdown: request_shutdown() — or a signal handler writing one byte to
// shutdown_fd(), which is the only async-signal-safe entry point — wakes
// the accept thread, which stops accepting, closes the hand-off channel
// and puts the engine into drain mode. Handlers finish their current
// connections (new submissions are rejected "shutting-down"; status /
// result / waits still work so clients can collect in-flight results),
// then wait() drains every accepted job and joins all threads.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sunfloor/service/job_engine.h"
#include "sunfloor/service/transport.h"
#include "sunfloor/util/channel.h"

namespace sunfloor::service {

struct ServerOptions {
    /// Listen address: unix socket path (contains '/') or host:port.
    std::string listen;
    EngineOptions engine;
    /// Connection-handler threads (concurrent clients served).
    int conn_threads = 4;
    /// Accepted-but-unclaimed connections held in the hand-off channel;
    /// beyond this, new connections get a "busy" rejection.
    int max_pending_conns = 32;
    /// Request-frame size limit (satellite: oversized frames are a named
    /// protocol error, not an allocation).
    long long max_frame_bytes = 1 << 20;
};

class Server {
  public:
    explicit Server(ServerOptions opts);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Bind, listen and spawn the accept/handler threads. False (with a
    /// named error) when the address cannot be parsed or bound.
    bool start(std::string& error);

    /// The resolved listen address (valid after start()).
    const Address& address() const { return addr_; }

    /// Write end of the shutdown self-pipe. Writing one byte here is
    /// async-signal-safe — it is what a SIGINT/SIGTERM handler should do.
    int shutdown_fd() const { return shutdown_pipe_[1]; }

    /// Begin graceful shutdown (idempotent, callable from any thread).
    void request_shutdown();

    /// Block until shutdown was requested, every accepted job drained and
    /// all threads joined. Safe to call once after start().
    void wait();

    JobEngine& engine() { return *engine_; }

    /// shard_run requests answered with a result / with an error frame.
    /// They run beside the engine, so EngineStats does not count them.
    long long shards_ok() const {
        return shards_ok_.load(std::memory_order_relaxed);
    }
    long long shards_failed() const {
        return shards_failed_.load(std::memory_order_relaxed);
    }

  private:
    void accept_loop();
    void handler_loop();
    /// Serve one connection until EOF/error/shutdown-drain.
    void serve_connection(int fd);
    /// Handle one parsed request; returns the response frame (no '\n').
    std::string handle(const Request& req);

    ServerOptions opts_;
    Address addr_;
    std::unique_ptr<JobEngine> engine_;
    Channel<int> pending_;  ///< accepted fds awaiting a handler
    int listen_fd_ = -1;
    int shutdown_pipe_[2] = {-1, -1};
    std::atomic<bool> shutting_down_{false};
    std::atomic<long long> shards_ok_{0};
    std::atomic<long long> shards_failed_{0};
    std::thread accept_thread_;
    std::vector<std::thread> handlers_;
    bool started_ = false;
};

}  // namespace sunfloor::service
