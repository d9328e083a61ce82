#include "sunfloor/service/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "sunfloor/dist/shard.h"
#include "sunfloor/explore/export.h"
#include "sunfloor/obs/trace.h"
#include "sunfloor/util/strings.h"

namespace sunfloor::service {

namespace {

std::string error_response(const std::string& msg) {
    return "{\"ok\":false,\"error\":" + json_quote(msg) + "}";
}

std::string reject_response(RejectReason reason, const std::string& msg) {
    return format("{\"ok\":false,\"rejected\":\"%s\",\"error\":%s}",
                  reject_to_string(reason), json_quote(msg).c_str());
}

std::string status_response(const JobStatus& st) {
    return format("{\"ok\":true,\"id\":%llu,\"kind\":\"%s\","
                  "\"status\":\"%s\",\"wait_ms\":%.3f,\"run_ms\":%.3f}",
                  static_cast<unsigned long long>(st.id),
                  kind_to_string(st.kind), state_to_string(st.state),
                  st.wait_ms, st.run_ms);
}

std::string result_response(const JobStatus& st, const JobResult& r) {
    std::string out = format(
        "{\"ok\":true,\"id\":%llu,\"status\":\"%s\",\"result\":{",
        static_cast<unsigned long long>(st.id),
        state_to_string(st.state));
    if (r.failed) {
        out += "\"error\":" + json_quote(r.error);
        return out + "}}";
    }
    out += format("\"kind\":\"%s\",", kind_to_string(st.kind));
    if (!r.phase_used.empty())
        out += "\"phase\":" + json_quote(r.phase_used) + ",";
    out += format("\"num_points\":%d,\"num_valid\":%d,\"pareto\":%d,"
                  "\"best_power_mw\":%.17g,\"best_latency_cycles\":%.17g,",
                  r.num_points, r.num_valid, r.pareto_size,
                  r.best_power_mw, r.best_latency_cycles);
    out += "\"csv\":" + json_quote(r.csv);
    return out + "}}";
}

std::string stats_response(const EngineStats& st, long long shards_ok,
                           long long shards_failed) {
    return format(
        "{\"ok\":true,\"stats\":{\"submitted\":%lld,\"completed\":%lld,"
        "\"failed\":%lld,\"rejected\":%lld,\"queued\":%d,\"running\":%d,"
        "\"workers\":%d,\"sessions\":%d,\"shards_ok\":%lld,"
        "\"shards_failed\":%lld}}",
        st.submitted, st.completed, st.failed, st.rejected, st.queued,
        st.running, st.workers, st.sessions, shards_ok, shards_failed);
}

const char kBusyResponse[] =
    "{\"ok\":false,\"rejected\":\"busy\","
    "\"error\":\"too many pending connections\"}\n";

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      engine_(std::make_unique<JobEngine>(opts_.engine)),
      pending_(static_cast<std::size_t>(
          opts_.max_pending_conns > 0 ? opts_.max_pending_conns : 1)) {
    if (opts_.conn_threads < 1) opts_.conn_threads = 1;
}

Server::~Server() {
    request_shutdown();
    wait();
    close_fd(shutdown_pipe_[0]);
    close_fd(shutdown_pipe_[1]);
    shutdown_pipe_[0] = shutdown_pipe_[1] = -1;
}

bool Server::start(std::string& error) {
    if (!parse_address(opts_.listen, addr_, error)) return false;
    if (::pipe(shutdown_pipe_) != 0) {
        error = "cannot create shutdown pipe";
        return false;
    }
    listen_fd_ = listen_on(addr_, error);
    if (listen_fd_ < 0) return false;
    started_ = true;
    accept_thread_ = std::thread([this] { accept_loop(); });
    handlers_.reserve(static_cast<std::size_t>(opts_.conn_threads));
    for (int i = 0; i < opts_.conn_threads; ++i)
        handlers_.emplace_back([this] { handler_loop(); });
    return true;
}

void Server::request_shutdown() {
    if (shutdown_pipe_[1] < 0) return;
    const char b = 1;
    // The pipe only ever carries this wake-up byte; a full pipe already
    // guarantees the accept loop will wake.
    [[maybe_unused]] const ssize_t n =
        ::write(shutdown_pipe_[1], &b, 1);
}

void Server::wait() {
    if (!started_) return;
    if (accept_thread_.joinable()) accept_thread_.join();
    for (std::thread& t : handlers_)
        if (t.joinable()) t.join();
    engine_->drain();
}

void Server::accept_loop() {
    for (;;) {
        pollfd fds[2] = {{listen_fd_, POLLIN, 0},
                         {shutdown_pipe_[0], POLLIN, 0}};
        const int pr = ::poll(fds, 2, -1);
        if (pr < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (fds[1].revents != 0) break;  // shutdown byte
        if ((fds[0].revents & POLLIN) == 0) continue;
        const int conn = ::accept(listen_fd_, nullptr, nullptr);
        if (conn < 0) continue;
        // Receive timeout so an idle connection's handler notices a
        // shutdown within ~half a second instead of blocking in read().
        timeval tv{};
        tv.tv_usec = 500 * 1000;
        ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        if (pending_.try_send(conn) != TrySend::Ok) {
            write_all(conn, kBusyResponse);
            close_fd(conn);
        }
    }
    // Graceful shutdown: stop accepting, let the handlers drain the
    // already-accepted connections (submissions now get "shutting-down"),
    // and put the engine into drain mode so wait() can finish the rest.
    shutting_down_.store(true, std::memory_order_relaxed);
    engine_->begin_drain();
    pending_.close();
    close_fd(listen_fd_);
    listen_fd_ = -1;
}

void Server::handler_loop() {
    int fd = -1;
    while (pending_.recv(fd)) serve_connection(fd);
}

void Server::serve_connection(int fd) {
    std::string buf;
    std::string line;
    std::string err;
    for (;;) {
        const int r = read_line(
            fd, buf, line,
            static_cast<std::size_t>(
                opts_.max_frame_bytes > 0 ? opts_.max_frame_bytes : 0),
            err);
        if (r == 0) break;  // clean EOF
        if (r == -2) {      // receive timeout: idle connection
            if (shutting_down_.load(std::memory_order_relaxed)) break;
            continue;
        }
        if (r < 0) {
            // Oversized frame or broken stream: answer (best effort, the
            // peer may be gone) and drop the connection — the framing is
            // unrecoverable.
            write_all(fd, error_response(err) + "\n");
            break;
        }
        std::string resp;
        {
            obs::ScopedSpan span("service.request");
            Request req;
            std::string perr;
            if (!parse_request(line, opts_.max_frame_bytes, req, perr)) {
                resp = error_response(perr);
            } else {
                resp = handle(req);
            }
        }
        if (!write_all(fd, resp + "\n")) break;
    }
    close_fd(fd);
}

std::string Server::handle(const Request& req) {
    switch (req.op) {
        case Request::Op::Submit: {
            JobRequest jr;
            std::string err;
            if (!build_job_request(req.submit, jr, err))
                return error_response(err);
            const Submission sub = engine_->submit(std::move(jr));
            if (!sub.accepted)
                return reject_response(sub.reason, sub.error);
            if (!req.submit.wait)
                return format("{\"ok\":true,\"id\":%llu,"
                              "\"status\":\"queued\"}",
                              static_cast<unsigned long long>(sub.id));
            JobStatus st;
            engine_->wait(sub.id, st);
            JobResult r;
            engine_->result(sub.id, r);
            return result_response(st, r);
        }
        case Request::Op::Status: {
            JobStatus st;
            if (!engine_->status(req.id, st))
                return error_response(
                    format("unknown job id %llu",
                           static_cast<unsigned long long>(req.id)));
            return status_response(st);
        }
        case Request::Op::Result: {
            JobStatus st;
            if (!engine_->status(req.id, st))
                return error_response(
                    format("unknown job id %llu",
                           static_cast<unsigned long long>(req.id)));
            if (req.wait) engine_->wait(req.id, st);
            if (st.state != JobState::Done &&
                st.state != JobState::Failed)
                return error_response(
                    format("job %llu is not finished (status %s)",
                           static_cast<unsigned long long>(req.id),
                           state_to_string(st.state)));
            JobResult r;
            engine_->result(req.id, r);
            return result_response(st, r);
        }
        case Request::Op::Stats:
            return stats_response(engine_->stats(), shards_ok(),
                                  shards_failed());
        case Request::Op::Shutdown:
            request_shutdown();
            return "{\"ok\":true,\"status\":\"draining\"}";
        case Request::Op::ShardRun: {
            bool ok = false;
            std::string frame = dist::run_shard_frame(req.shard, &ok);
            (ok ? shards_ok_ : shards_failed_)
                .fetch_add(1, std::memory_order_relaxed);
            return frame;
        }
    }
    return error_response("unhandled op");
}

}  // namespace sunfloor::service
