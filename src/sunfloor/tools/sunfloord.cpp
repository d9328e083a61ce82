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
// Usage:
//   sunfloord --listen <path|host:port> [options]
//
// Options:
//   --listen <addr>           unix socket path (contains '/') or host:port
//   --workers <n>             job worker threads; 0 = all cores (default 0)
//   --queue-depth <n>         max queued jobs before queue-full (default 256)
//   --quota <n>               max active jobs per client       (default 64)
//   --sessions <n>            warm per-spec sessions kept, LRU (default 8)
//   --explore-threads <n>     threads inside one explore job   (default 1)
//   --conn-threads <n>        concurrent connections served    (default 4)
//   --max-frame-bytes <n>     request frame size limit         (default 1MB)
//   --trace <file>            span trace (service.request / service.job
//                             plus the pipeline spans), written on exit
//   --metrics <file|->        metrics snapshot JSON, written on exit
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
#include "sunfloor/util/strings.h"

using namespace sunfloor;

namespace {

int usage() {
    std::fprintf(
        stderr,
        "usage: sunfloord --listen <path|host:port> [--workers N] "
        "[--queue-depth N] [--quota N] [--sessions N] "
        "[--explore-threads N] [--conn-threads N] [--max-frame-bytes N] "
        "[--trace file] [--metrics file|-]\n");
    return 2;
}

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

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        auto int_flag = [&](int& out, int min_value) {
            const char* v = next();
            return v && parse_int(v, out) && out >= min_value;
        };
        if (arg == "--listen") {
            const char* v = next();
            if (!v) return usage();
            opts.listen = v;
        } else if (arg == "--workers") {
            if (!int_flag(opts.engine.workers, 0)) return usage();
        } else if (arg == "--queue-depth") {
            if (!int_flag(opts.engine.queue_capacity, 1)) return usage();
        } else if (arg == "--quota") {
            if (!int_flag(opts.engine.per_client_quota, 1)) return usage();
        } else if (arg == "--sessions") {
            if (!int_flag(opts.engine.max_sessions, 1)) return usage();
        } else if (arg == "--explore-threads") {
            if (!int_flag(opts.engine.explore_threads, 1)) return usage();
        } else if (arg == "--conn-threads") {
            if (!int_flag(opts.conn_threads, 1)) return usage();
        } else if (arg == "--max-frame-bytes") {
            const char* v = next();
            if (!v || !parse_int64(v, opts.max_frame_bytes) ||
                opts.max_frame_bytes < 1024)
                return usage();
        } else {
            const int ob = sinks.parse_flag(arg, next);
            if (ob < 0) return usage();
            if (ob == 1) continue;
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return usage();
        }
    }
    if (opts.listen.empty()) {
        std::fprintf(stderr, "sunfloord requires --listen\n");
        return usage();
    }

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
                "%lld rejected\n",
                st.completed, st.failed, st.rejected);
    if (!sinks.finish()) return 1;
    return 0;
}
