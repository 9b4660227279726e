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

#include "common/panic.h"
#include "stats/metrics.h"
#include "stats/stat_plane.h"

namespace ido::cluster {

namespace {

std::string
unavailable_reply()
{
    return "SERVER_ERROR node unavailable\r\n";
}

/** How often the sweep runs: reconnect retries + deadline expiry. */
constexpr uint32_t kSweepMs = 20;

} // namespace

Router::Router(const RouterConfig& cfg)
    : cfg_(cfg), ring_(cfg.ring_seed, cfg.vnodes),
      frontend_(loop_, cfg.port, "ido-router",
                [this](uint64_t conn_id, uint64_t seq,
                       const std::atomic<bool>*, net::MemcRequest&& rq) {
                    forward(conn_id, seq, rq);
                },
                [this] { flush_upstreams(); })
{
    IDO_ASSERT(!cfg_.nodes.empty(), "router needs at least one node");
    upstreams_.resize(cfg_.nodes.size());
    for (uint32_t i = 0; i < cfg_.nodes.size(); ++i) {
        ring_.add_node(i);
        upstreams_[i].addr = cfg_.nodes[i];
    }

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
    for (Upstream& u : upstreams_)
        if (u.fd >= 0)
            ::close(u.fd);
    if (timer_fd_ >= 0)
        ::close(timer_fd_);
    MetricsRegistry::instance().unregister_gauge(
        "cluster.router.hold_depth");
}

void
Router::run()
{
    frontend_.start();
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
    frontend_.stop();
}

void
Router::stop()
{
    loop_.stop();
}

void
Router::forward(uint64_t conn_id, uint64_t seq, const net::MemcRequest& rq)
{
    Upstream& u = upstreams_[ring_.owner_of_key(rq.key)];
    if (u.state == UpState::kUp) {
        u.out += net::memc_wire_request(rq);
        u.pending.push_back({conn_id, seq, rq.op});
        forwarded_->fetch_add(1, std::memory_order_relaxed);
        // Deliberately not flushed here: flush_upstreams runs once after
        // the whole read burst so a client pipeline stays one write.
        return;
    }
    // Holdback: the node is down (crash window / supervisor restart).
    if (u.hold.size() >= cfg_.hold_max) {
        rejected_->fetch_add(1, std::memory_order_relaxed);
        frontend_.complete(conn_id, seq, unavailable_reply());
        return;
    }
    HeldOp h;
    h.conn_id = conn_id;
    h.seq = seq;
    h.op = rq.op;
    h.wire = net::memc_wire_request(rq);
    h.deadline_ns = stat_now_ns() +
                    static_cast<uint64_t>(cfg_.hold_deadline_ms) * 1000000ull;
    u.hold.push_back(std::move(h));
    held_->fetch_add(1, std::memory_order_relaxed);
}

void
Router::flush_upstreams()
{
    for (Upstream& u : upstreams_)
        if (u.state == UpState::kUp && !u.out.empty())
            flush_upstream(u);
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
            stat_now_ns() + static_cast<uint64_t>(u.backoff_ms) * 1000000ull;
        return;
    }
    // Async connect: EPOLLOUT fires when it resolves either way.  While
    // kConnecting, next_attempt_ns doubles as the connect deadline so
    // on_timer can reclaim a dial whose SYN vanished.
    u.fd = fd;
    u.state = UpState::kConnecting;
    u.next_attempt_ns =
        stat_now_ns() +
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
    u.in.reset();
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
    u.in.reset();
    u.want_write = false;
    if (was_up)
        upstream_errors_->fetch_add(1, std::memory_order_relaxed);
    // In-flight requests cannot be replayed: the node may or may not
    // have executed them before dying, and a blind resend could
    // double-apply.  Error them out and let the client decide.
    while (!u.pending.empty()) {
        PendingOp p = u.pending.front();
        u.pending.pop_front();
        frontend_.complete(p.conn_id, p.seq, unavailable_reply());
    }
    u.backoff_ms = u.backoff_ms
                       ? std::min(u.backoff_ms * 2, cfg_.backoff_max_ms)
                       : cfg_.backoff_min_ms;
    u.next_attempt_ns =
        stat_now_ns() + static_cast<uint64_t>(u.backoff_ms) * 1000000ull;
}

void
Router::flush_upstream(Upstream& u)
{
    while (!u.out.empty()) {
        const ssize_t n =
            ::send(u.fd, u.out.data(), u.out.size(), MSG_NOSIGNAL);
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
            u.in.feed(buf, static_cast<size_t>(n));
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
    net::MemcReply reply;
    while (!u.pending.empty() && u.in.next(u.pending.front().op, &reply)) {
        const PendingOp p = u.pending.front();
        u.pending.pop_front();
        frontend_.complete(p.conn_id, p.seq, std::move(reply.wire));
    }
    // Bytes off the grammar, or with no request owed: protocol desync,
    // drop the node.
    if (u.in.bad() || (u.pending.empty() && u.in.buffered_bytes() != 0))
        upstream_down(node);
}

// --- timer sweep -------------------------------------------------------

void
Router::on_timer()
{
    const uint64_t now = stat_now_ns();
    for (uint32_t i = 0; i < upstreams_.size(); ++i) {
        Upstream& u = upstreams_[i];
        // Fail-fast: a request held past the deadline gets its error
        // *in hold order* so the per-connection reorder buffer never
        // releases a younger reply before an older one resolves.
        while (!u.hold.empty() && u.hold.front().deadline_ns <= now) {
            HeldOp h = std::move(u.hold.front());
            u.hold.pop_front();
            expired_->fetch_add(1, std::memory_order_relaxed);
            frontend_.complete(h.conn_id, h.seq, unavailable_reply());
        }
        if (u.state == UpState::kConnecting && u.next_attempt_ns <= now) {
            // Async connect never resolved (e.g. SYN silently dropped):
            // without this the upstream wedges in kConnecting forever.
            upstream_down(i); // sets kDown + backoff; redialed below/next
        }
        if (u.state == UpState::kDown && u.next_attempt_ns <= now)
            start_connect(i);
    }
}

} // namespace ido::cluster
