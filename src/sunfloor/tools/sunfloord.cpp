// sunfloord — the synthesis-as-a-service daemon.
//
// Serves the line-delimited JSON protocol of service/protocol.h over a
// Unix-domain or TCP socket, running synthesis/exploration jobs on a
// worker pool with warm per-spec pipeline sessions (service/job_engine.h).
// Results are byte-identical to one-shot sunfloor_cli runs.
//
// Ops: submit, status, result, stats, shutdown, and shard_run — one slice
// of a distributed exploration (dist/protocol.h), run synchronously on
// the connection's handler thread. sunfloord is therefore also the shard
// worker of `sunfloor_cli explore --shard-transport socket`; a slice
// frame must fit --max-frame-bytes.
//
// Usage: sunfloord --listen <path|host:port> [options]. The flag table
// in main() is the reference; a bad or missing flag prints it.
//
// SIGINT/SIGTERM shut down gracefully: stop accepting, reject new
// submissions ("shutting-down"), finish every accepted job and the
// shard_run in progress, flush the --trace/--metrics sinks, exit 0.
#include <csignal>
#include <cstdio>
#include <string>

#include <unistd.h>

#include "sunfloor/service/server.h"
#include "sunfloor/tools/obs_sinks.h"
#include "sunfloor/util/flags.h"
#include "sunfloor/util/strings.h"

using namespace sunfloor;

namespace {

constexpr flags::Range<long long> kFrameBytes{
    "an integer >= 1024", [](long long v) { return v >= 1024; }};

// Signal handling: the handler may only touch async-signal-safe state,
// so it writes one byte to the server's shutdown pipe and nothing else.
volatile sig_atomic_t g_signal_seen = 0;
int g_shutdown_fd = -1;

extern "C" void on_shutdown_signal(int) {
    g_signal_seen = 1;
    if (g_shutdown_fd >= 0) {
        const char b = 1;
        [[maybe_unused]] const ssize_t n = ::write(g_shutdown_fd, &b, 1);
    }
}

}  // namespace

int main(int argc, char** argv) {
    service::ServerOptions opts;
    tools::ObsSinks sinks;

    const flags::Command cmd{
        "sunfloord --listen ADDR [options]",
        flags::Flags{
            {"--listen", "ADDR",
             "unix socket path (contains '/') or host:port",
             flags::text(opts.listen)},
            {"--workers", "N", "job worker threads; 0 = all cores (default 0)",
             flags::one(opts.engine.workers, flags::kNonNegativeInt)},
            {"--queue-depth", "N",
             "max queued jobs before queue-full (default 256)",
             flags::one(opts.engine.queue_capacity, flags::kPositiveInt)},
            {"--quota", "N", "max active jobs per client (default 64)",
             flags::one(opts.engine.per_client_quota, flags::kPositiveInt)},
            {"--sessions", "N", "warm per-spec sessions kept, LRU (default 8)",
             flags::one(opts.engine.max_sessions, flags::kPositiveInt)},
            {"--explore-threads", "N",
             "threads inside one explore job (default 1)",
             flags::one(opts.engine.explore_threads, flags::kPositiveInt)},
            {"--conn-threads", "N",
             "concurrent connections served (default 4)",
             flags::one(opts.conn_threads, flags::kPositiveInt)},
            {"--max-frame-bytes", "N",
             "request frame size limit, also bounds a shard_run slice "
             "(default 1MB)",
             flags::one(opts.max_frame_bytes, kFrameBytes)},
        } + sinks.flags()};
    if (!flags::parse(cmd, argc, argv, 1).ok) return flags::kUsageExit;
    if (opts.listen.empty())
        return flags::usage_error(cmd, "sunfloord requires --listen");

    if (!sinks.open()) return 1;

    service::Server server(opts);
    std::string error;
    if (!server.start(error)) {
        std::fprintf(stderr, "cannot start: %s\n", error.c_str());
        return 1;
    }

    g_shutdown_fd = server.shutdown_fd();
    struct sigaction sa {};
    sa.sa_handler = on_shutdown_signal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);

    std::printf("sunfloord listening on %s (%d workers, queue %d, "
                "quota %d, %d sessions)\n",
                opts.listen.c_str(), server.engine().options().workers,
                server.engine().options().queue_capacity,
                server.engine().options().per_client_quota,
                server.engine().options().max_sessions);
    std::fflush(stdout);

    server.wait();  // returns once shut down and every job is terminal

    const service::EngineStats st = server.engine().stats();
    std::printf("sunfloord: drained, %lld job(s) completed, %lld failed, "
                "%lld rejected; %lld shard_run(s) served, %lld failed\n",
                st.completed, st.failed, st.rejected, server.shards_ok(),
                server.shards_failed());
    if (!sinks.finish()) return 1;
    return 0;
}
