#include "cluster/router.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>

#include "common/panic.h"
#include "stats/metrics.h"

namespace ido::cluster {

namespace {

uint64_t
mono_ns()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

std::string
unavailable_reply()
{
    return "SERVER_ERROR node unavailable\r\n";
}

/** How often the sweep runs: reconnect retries + deadline expiry. */
constexpr uint32_t kSweepMs = 20;

} // namespace

Router::Router(const RouterConfig& cfg)
    : cfg_(cfg), ring_(cfg.ring_seed, cfg.vnodes)
{
    IDO_ASSERT(!cfg_.nodes.empty(), "router needs at least one node");
    upstreams_.resize(cfg_.nodes.size());
    for (uint32_t i = 0; i < cfg_.nodes.size(); ++i) {
        ring_.add_node(i);
        upstreams_[i].addr = cfg_.nodes[i];
    }

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    IDO_ASSERT(listen_fd_ >= 0, "socket() failed");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(cfg_.port);
    int rc = ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof addr);
    IDO_ASSERT(rc == 0, "router bind() failed (port in use?)");
    rc = ::listen(listen_fd_, 128);
    IDO_ASSERT(rc == 0, "router listen() failed");
    socklen_t alen = sizeof addr;
    rc = ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                       &alen);
    IDO_ASSERT(rc == 0, "getsockname() failed");
    port_ = ntohs(addr.sin_port);
    net::set_nonblocking(listen_fd_);

    // The EventLoop has no timer facility by design; a timerfd is just
    // another readable fd, so the sweep rides the same epoll.
    timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC,
                                 TFD_NONBLOCK | TFD_CLOEXEC);
    IDO_ASSERT(timer_fd_ >= 0, "timerfd_create failed");

    auto& reg = MetricsRegistry::instance();
    forwarded_ = reg.counter("cluster.router.forwarded");
    held_ = reg.counter("cluster.router.held");
    replayed_ = reg.counter("cluster.router.replayed");
    expired_ = reg.counter("cluster.router.expired");
    rejected_ = reg.counter("cluster.router.rejected");
    upstream_errors_ = reg.counter("cluster.router.upstream_errors");
    reconnects_ = reg.counter("cluster.router.reconnects");
    reg.register_gauge("cluster.router.hold_depth", [this] {
        // Loop-thread data read from a scrape thread: racy by design,
        // the gauge is a monitoring hint, not a correctness signal.
        uint64_t n = 0;
        for (const Upstream& u : upstreams_)
            n += u.hold.size();
        return n;
    });
}

Router::~Router()
{
    for (auto& [id, c] : conns_)
        if (c->fd >= 0)
            ::close(c->fd);
    for (Upstream& u : upstreams_)
        if (u.fd >= 0)
            ::close(u.fd);
    if (timer_fd_ >= 0)
        ::close(timer_fd_);
    if (listen_fd_ >= 0)
        ::close(listen_fd_);
    MetricsRegistry::instance().unregister_gauge(
        "cluster.router.hold_depth");
}

void
Router::run()
{
    loop_.add(listen_fd_, EPOLLIN,
              [this](uint32_t ev) { on_accept(ev); });
    struct itimerspec its = {};
    its.it_interval.tv_nsec = kSweepMs * 1000000l;
    its.it_value.tv_nsec = kSweepMs * 1000000l;
    ::timerfd_settime(timer_fd_, 0, &its, nullptr);
    loop_.add(timer_fd_, EPOLLIN, [this](uint32_t) {
        uint64_t ticks = 0;
        while (::read(timer_fd_, &ticks, sizeof ticks) > 0) {
        }
        on_timer();
    });
    // Eagerly dial every node so the first client request doesn't pay
    // the connect latency.
    for (uint32_t i = 0; i < upstreams_.size(); ++i)
        start_connect(i);
    loop_.run();
    loop_.del(timer_fd_);
    loop_.del(listen_fd_);
}

void
Router::stop()
{
    loop_.stop();
}

// --- client side -------------------------------------------------------

void
Router::on_accept(uint32_t events)
{
    if (!(events & EPOLLIN))
        return;
    for (;;) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        net::set_nonblocking(fd);
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        auto c = std::make_unique<Conn>();
        c->fd = fd;
        c->id = next_conn_id_++;
        const uint64_t id = c->id;
        conns_[id] = std::move(c);
        loop_.add(fd, EPOLLIN,
                  [this, id](uint32_t ev) { on_conn_event(id, ev); });
    }
}

void
Router::on_conn_event(uint64_t conn_id, uint32_t events)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    Conn& c = *it->second;
    if (c.fd < 0) // defunct shell awaiting reap
        return;
    if (events & (EPOLLHUP | EPOLLERR)) {
        close_conn(c);
        return;
    }
    if (events & EPOLLOUT)
        flush_out(c); // may close_conn (write error / drained quit)
    if ((events & EPOLLIN) && c.fd >= 0)
        read_conn(c);
}

void
Router::read_conn(Conn& c)
{
    char buf[16 * 1024];
    for (;;) {
        ssize_t n = ::read(c.fd, buf, sizeof buf);
        if (n > 0) {
            c.parser.feed(buf, static_cast<size_t>(n));
            continue;
        }
        if (n == 0) {
            c.closing = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        close_conn(c);
        return;
    }
    net::MemcRequest rq;
    // route_request can close the conn mid-loop (reject path -> deliver
    // -> flush_out on a reset client); the shell stays valid (deferred
    // reap) but there is no one left to route for.
    while (c.fd >= 0 && c.parser.next(&rq))
        route_request(c, std::move(rq));
    if (c.fd < 0)
        return;
    if (c.parser.poisoned())
        c.closing = true;
    release_ready(c);
    // Pipelined requests queued onto upstream outbufs above go out now
    // rather than on the next loop tick.
    for (Upstream& u : upstreams_)
        if (u.state == UpState::kUp && !u.out.empty())
            flush_upstream(u);
}

void
Router::route_request(Conn& c, net::MemcRequest&& rq)
{
    const uint64_t seq = c.next_seq++;
    switch (rq.op) {
    case net::MemcOp::kGet:
    case net::MemcOp::kSet:
    case net::MemcOp::kDelete: {
        const uint32_t node = ring_.owner_of_key(rq.key);
        ++c.inflight;
        forward(node, c.id, seq, rq);
        return;
    }
    case net::MemcOp::kStats:
        local_reply(c, seq, stats_reply());
        return;
    case net::MemcOp::kVersion:
        local_reply(c, seq, net::memc_reply_version());
        return;
    case net::MemcOp::kQuit:
        c.closing = true;
        local_reply(c, seq, std::string());
        return;
    case net::MemcOp::kError:
        local_reply(c, seq,
                    rq.message.empty() ? net::memc_reply_error()
                                       : rq.message);
        return;
    }
}

void
Router::forward(uint32_t node, uint64_t conn_id, uint64_t seq,
                const net::MemcRequest& rq)
{
    Upstream& u = upstreams_[node];
    if (u.state == UpState::kUp) {
        u.out += net::memc_wire_request(rq);
        u.pending.push_back({conn_id, seq, rq.op});
        forwarded_->fetch_add(1, std::memory_order_relaxed);
        // Deliberately not flushed here: read_conn flushes once after
        // the whole read burst so a client pipeline stays one write.
        return;
    }
    // Holdback: the node is down (crash window / supervisor restart).
    if (u.hold.size() >= cfg_.hold_max) {
        rejected_->fetch_add(1, std::memory_order_relaxed);
        deliver(conn_id, seq, unavailable_reply());
        return;
    }
    HeldOp h;
    h.conn_id = conn_id;
    h.seq = seq;
    h.op = rq.op;
    h.wire = net::memc_wire_request(rq);
    h.deadline_ns =
        mono_ns() + static_cast<uint64_t>(cfg_.hold_deadline_ms) * 1000000ull;
    u.hold.push_back(std::move(h));
    held_->fetch_add(1, std::memory_order_relaxed);
}

void
Router::local_reply(Conn& c, uint64_t seq, std::string data)
{
    c.reorder.emplace(seq, std::move(data));
    release_ready(c);
}

void
Router::deliver(uint64_t conn_id, uint64_t seq, std::string data)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    Conn& c = *it->second;
    IDO_ASSERT(c.inflight > 0, "reply without an in-flight request");
    --c.inflight;
    if (c.fd < 0) { // client left while the node was working
        if (c.inflight == 0)
            defunct_.push_back(c.id); // erased at the timer sweep
        return;
    }
    c.reorder.emplace(seq, std::move(data));
    release_ready(c);
}

void
Router::release_ready(Conn& c)
{
    auto it = c.reorder.begin();
    while (it != c.reorder.end() && it->first == c.next_release) {
        c.out += it->second;
        ++c.next_release;
        it = c.reorder.erase(it);
    }
    flush_out(c);
}

void
Router::flush_out(Conn& c)
{
    if (c.fd < 0)
        return;
    while (!c.out.empty()) {
        ssize_t n = ::write(c.fd, c.out.data(), c.out.size());
        if (n > 0) {
            c.out.erase(0, static_cast<size_t>(n));
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        close_conn(c);
        return;
    }
    const bool drained =
        c.out.empty() && c.reorder.empty() && c.next_release == c.next_seq;
    if (c.closing && drained) {
        close_conn(c);
        return;
    }
    const bool want = !c.out.empty();
    if (want != c.want_write) {
        c.want_write = want;
        loop_.mod(c.fd, EPOLLIN | (want ? EPOLLOUT : 0u));
    }
}

void
Router::close_conn(Conn& c)
{
    if (c.fd < 0)
        return;
    loop_.del(c.fd);
    ::close(c.fd);
    c.fd = -1;
    c.out.clear();
    c.reorder.clear();
    // Never erase here: callers up the stack (read_conn's parse loop,
    // on_conn_event's flush-then-read sequence, forward's reject path)
    // still hold a Conn&.  The shell stays until every pending/held op
    // resolves its inflight count, then reap_defunct() erases it at
    // the timer sweep where no Conn& is live.
    if (c.inflight == 0)
        defunct_.push_back(c.id);
}

void
Router::reap_defunct()
{
    for (uint64_t id : defunct_)
        conns_.erase(id);
    defunct_.clear();
}

std::string
Router::stats_reply()
{
    const MetricsRegistry::Snapshot s =
        MetricsRegistry::instance().snapshot();
    std::string out;
    out.reserve(2048);
    for (const auto& [name, v] : s.counters)
        out += net::memc_reply_stat(name, std::to_string(v));
    for (const auto& [name, v] : s.gauges)
        out += net::memc_reply_stat(name, std::to_string(v));
    out += "END\r\n";
    return out;
}

// --- upstream side -----------------------------------------------------

void
Router::start_connect(uint32_t node)
{
    Upstream& u = upstreams_[node];
    IDO_ASSERT(u.state != UpState::kUp, "connect on a live upstream");
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    IDO_ASSERT(fd >= 0, "socket() failed");
    net::set_nonblocking(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(u.addr.port);
    if (::inet_pton(AF_INET, u.addr.host.c_str(), &addr.sin_addr) != 1)
        fatal("ido-router: node host '%s' is not a dotted-quad address",
              u.addr.host.c_str());
    const int rc =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    if (rc == 0) {
        u.fd = fd;
        u.state = UpState::kConnecting; // established below
        loop_.add(fd, EPOLLIN, [this, node](uint32_t ev) {
            on_upstream_event(node, ev);
        });
        upstream_established(node);
        return;
    }
    if (errno != EINPROGRESS) {
        ::close(fd);
        u.state = UpState::kDown;
        u.backoff_ms = u.backoff_ms
                           ? std::min(u.backoff_ms * 2, cfg_.backoff_max_ms)
                           : cfg_.backoff_min_ms;
        u.next_attempt_ns =
            mono_ns() + static_cast<uint64_t>(u.backoff_ms) * 1000000ull;
        return;
    }
    // Async connect: EPOLLOUT fires when it resolves either way.  While
    // kConnecting, next_attempt_ns doubles as the connect deadline so
    // on_timer can reclaim a dial whose SYN vanished.
    u.fd = fd;
    u.state = UpState::kConnecting;
    u.next_attempt_ns =
        mono_ns() +
        static_cast<uint64_t>(cfg_.connect_timeout_ms) * 1000000ull;
    loop_.add(fd, EPOLLOUT, [this, node](uint32_t ev) {
        on_upstream_event(node, ev);
    });
}

void
Router::on_upstream_event(uint32_t node, uint32_t events)
{
    Upstream& u = upstreams_[node];
    if (u.fd < 0)
        return;
    if (u.state == UpState::kConnecting) {
        int err = 0;
        socklen_t len = sizeof err;
        ::getsockopt(u.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0 || (events & (EPOLLHUP | EPOLLERR))) {
            upstream_down(node);
            return;
        }
        loop_.mod(u.fd, EPOLLIN);
        upstream_established(node);
        return;
    }
    if (events & (EPOLLHUP | EPOLLERR)) {
        upstream_down(node);
        return;
    }
    if (events & EPOLLOUT)
        flush_upstream(u); // may call upstream_down (write error)
    if ((events & EPOLLIN) && u.state == UpState::kUp)
        read_upstream(node);
}

void
Router::upstream_established(uint32_t node)
{
    Upstream& u = upstreams_[node];
    u.state = UpState::kUp;
    u.backoff_ms = 0;
    u.in.clear();
    reconnects_->fetch_add(1, std::memory_order_relaxed);
    replay_held(node);
    flush_upstream(u);
}

void
Router::replay_held(uint32_t node)
{
    Upstream& u = upstreams_[node];
    while (!u.hold.empty()) {
        HeldOp h = std::move(u.hold.front());
        u.hold.pop_front();
        u.out += h.wire;
        u.pending.push_back({h.conn_id, h.seq, h.op});
        replayed_->fetch_add(1, std::memory_order_relaxed);
    }
}

void
Router::upstream_down(uint32_t node)
{
    Upstream& u = upstreams_[node];
    if (u.fd >= 0) {
        loop_.del(u.fd);
        ::close(u.fd);
        u.fd = -1;
    }
    const bool was_up = u.state == UpState::kUp;
    u.state = UpState::kDown;
    u.out.clear();
    u.in.clear();
    u.want_write = false;
    if (was_up)
        upstream_errors_->fetch_add(1, std::memory_order_relaxed);
    // In-flight requests cannot be replayed: the node may or may not
    // have executed them before dying, and a blind resend could
    // double-apply.  Error them out and let the client decide.
    while (!u.pending.empty()) {
        PendingOp p = u.pending.front();
        u.pending.pop_front();
        deliver(p.conn_id, p.seq, unavailable_reply());
    }
    u.backoff_ms = u.backoff_ms
                       ? std::min(u.backoff_ms * 2, cfg_.backoff_max_ms)
                       : cfg_.backoff_min_ms;
    u.next_attempt_ns =
        mono_ns() + static_cast<uint64_t>(u.backoff_ms) * 1000000ull;
}

void
Router::flush_upstream(Upstream& u)
{
    while (!u.out.empty()) {
        ssize_t n = ::write(u.fd, u.out.data(), u.out.size());
        if (n > 0) {
            u.out.erase(0, static_cast<size_t>(n));
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        // The caller sees the death via the next epoll event; mark the
        // intent here and let upstream_down do the bookkeeping.
        const uint32_t node =
            static_cast<uint32_t>(&u - upstreams_.data());
        upstream_down(node);
        return;
    }
    const bool want = !u.out.empty();
    if (want != u.want_write && u.fd >= 0) {
        u.want_write = want;
        loop_.mod(u.fd, EPOLLIN | (want ? EPOLLOUT : 0u));
    }
}

void
Router::read_upstream(uint32_t node)
{
    Upstream& u = upstreams_[node];
    char buf[16 * 1024];
    for (;;) {
        ssize_t n = ::read(u.fd, buf, sizeof buf);
        if (n > 0) {
            u.in.append(buf, static_cast<size_t>(n));
            continue;
        }
        if (n == 0) { // node died (kill -9 harness aims exactly here)
            upstream_down(node);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        upstream_down(node);
        return;
    }
    std::string reply;
    while (!u.pending.empty() &&
           extract_reply(u.in, u.pending.front().op, &reply)) {
        PendingOp p = u.pending.front();
        u.pending.pop_front();
        deliver(p.conn_id, p.seq, std::move(reply));
        reply.clear();
    }
    if (u.pending.empty() && !u.in.empty()) {
        // Bytes with no request owed: protocol desync, drop the node.
        upstream_down(node);
    }
}

bool
Router::extract_reply(std::string& buf, net::MemcOp op,
                      std::string* reply)
{
    // Replies are line-framed except a get hit, which is
    //   VALUE <key> <flags> <len>\r\n<data>\r\nEND\r\n
    // Anything unexpected (ERROR / SERVER_ERROR) is one line for every
    // op, so "first line decides" covers the whole reply grammar.
    const size_t eol = buf.find("\r\n");
    if (eol == std::string::npos)
        return false;
    size_t need = eol + 2;
    if (op == net::MemcOp::kGet && buf.compare(0, 5, "VALUE") == 0) {
        // Two more lines: the data block and END.
        size_t at = need;
        for (int line = 0; line < 2; ++line) {
            const size_t e = buf.find("\r\n", at);
            if (e == std::string::npos)
                return false;
            at = e + 2;
        }
        need = at;
    }
    *reply = buf.substr(0, need);
    buf.erase(0, need);
    return true;
}

// --- timer sweep -------------------------------------------------------

void
Router::on_timer()
{
    const uint64_t now = mono_ns();
    for (uint32_t i = 0; i < upstreams_.size(); ++i) {
        Upstream& u = upstreams_[i];
        // Fail-fast: a request held past the deadline gets its error
        // *in hold order* so the per-connection reorder buffer never
        // releases a younger reply before an older one resolves.
        while (!u.hold.empty() && u.hold.front().deadline_ns <= now) {
            HeldOp h = std::move(u.hold.front());
            u.hold.pop_front();
            expired_->fetch_add(1, std::memory_order_relaxed);
            deliver(h.conn_id, h.seq, unavailable_reply());
        }
        if (u.state == UpState::kConnecting && u.next_attempt_ns <= now) {
            // Async connect never resolved (e.g. SYN silently dropped):
            // without this the upstream wedges in kConnecting forever.
            upstream_down(i); // sets kDown + backoff; redialed below/next
        }
        if (u.state == UpState::kDown && u.next_attempt_ns <= now)
            start_connect(i);
    }
    reap_defunct();
}

} // namespace ido::cluster
