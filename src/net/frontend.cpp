#include "net/frontend.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common/panic.h"
#include "stats/metrics.h"
#include "trace/trace.h"

namespace ido::net {

namespace {

/**
 * memcached `stats` framing: STAT <key> <value> lines, then END.
 * Latency recorders expand into .count/.mean_ns/.p50_ns/... keys so a
 * text client sees percentiles without JSON parsing.
 */
std::string
stats_body()
{
    const MetricsRegistry::Snapshot s =
        MetricsRegistry::instance().snapshot();
    std::string out;
    out.reserve(4096);
    for (const auto& [name, v] : s.counters)
        out += memc_reply_stat(name, std::to_string(v));
    for (const auto& [name, v] : s.gauges)
        out += memc_reply_stat(name, std::to_string(v));
    for (const auto& [name, h] : s.latencies) {
        const std::pair<const char*, uint64_t> rows[] = {
            {".count", h.total()},
            {".mean_ns", static_cast<uint64_t>(h.mean())},
            {".p50_ns", h.percentile(0.50)},
            {".p90_ns", h.percentile(0.90)},
            {".p99_ns", h.percentile(0.99)},
            {".p999_ns", h.percentile(0.999)},
            {".max_ns", h.max_value()},
        };
        for (const auto& [suffix, v] : rows)
            out += memc_reply_stat(name + suffix, std::to_string(v));
    }
    out += "END\r\n";
    return out;
}

} // namespace

MemcFrontend::MemcFrontend(EventLoop& loop, uint16_t port, const char* what,
                           Submit submit, BurstEnd burst_end)
    : loop_(loop), submit_(std::move(submit)),
      burst_end_(std::move(burst_end)),
      reply_writes_(MetricsRegistry::instance().counter("net.reply_writes"))
{
    listen_fd_ = listen_loopback(port, 128, what, &port_);
}

MemcFrontend::~MemcFrontend()
{
    for (auto& [id, c] : conns_)
        if (c->fd >= 0)
            ::close(c->fd);
    ::close(listen_fd_);
}

void
MemcFrontend::start()
{
    loop_.add(listen_fd_, EPOLLIN, [this](uint32_t ev) { on_accept(ev); });
    loop_.set_turn_end([this] { end_turn(); });
}

void
MemcFrontend::stop()
{
    loop_.set_turn_end(nullptr);
    loop_.del(listen_fd_);
}

void
MemcFrontend::on_accept(uint32_t events)
{
    if (!(events & EPOLLIN))
        return;
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN and everything else: try again next event
        }
        set_nonblocking(fd);
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        auto c = std::make_unique<Conn>();
        c->fd = fd;
        c->id = next_conn_id_++;
        c->events = EPOLLIN;
        const uint64_t id = c->id;
        conns_[id] = std::move(c);
        conn_count_.fetch_add(1, std::memory_order_relaxed);
        trace::emit(trace::EventKind::kConnOpen, id);
        loop_.add(fd, EPOLLIN, [this, id](uint32_t ev) { on_event(id, ev); });
    }
}

void
MemcFrontend::on_event(uint64_t conn_id, uint32_t events)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    Conn& c = *it->second;
    if (c.fd < 0) // closed shell awaiting the owner's completions
        return;
    if (events & (EPOLLHUP | EPOLLERR))
        close(c);
    if ((events & EPOLLOUT) && c.fd >= 0)
        mark_dirty(c);
    if ((events & EPOLLIN) && c.fd >= 0)
        read_burst(c);
}

void
MemcFrontend::read_burst(Conn& c)
{
    char buf[16 * 1024];
    bool eof = false;
    for (;;) {
        const ssize_t n = ::read(c.fd, buf, sizeof buf);
        if (n > 0) {
            c.parser.feed(buf, static_cast<size_t>(n));
            continue;
        }
        if (n == 0) { // peer half-closed: serve what it sent, then close
            eof = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        close(c);
        return;
    }
    MemcRequest rq;
    // A quit (or a reject path in submit that closes the conn) stops
    // the burst: nothing after it is served to a closing client.
    while (c.fd >= 0 && !c.closing && c.parser.next(&rq))
        dispatch(c, std::move(rq));
    if (eof || c.parser.poisoned())
        c.closing = true;
    if (burst_end_)
        burst_end_();
    // Inline answers and a new closing state settle in the write pass.
    if (c.fd >= 0)
        mark_dirty(c);
}

void
MemcFrontend::dispatch(Conn& c, MemcRequest&& rq)
{
    const uint64_t seq = c.next_seq++;
    trace::emit(trace::EventKind::kNetRequest, c.id,
                static_cast<uint64_t>(rq.op));
    std::string reply;
    switch (rq.op) {
    case MemcOp::kGet:
    case MemcOp::kSet:
    case MemcOp::kDelete:
        ++c.inflight;
        submit_(c.id, seq, &c.alive, std::move(rq));
        return;
    case MemcOp::kStats:
        reply = stats_body();
        break;
    case MemcOp::kVersion:
        reply = memc_reply_version();
        break;
    case MemcOp::kQuit:
        c.closing = true;
        break;
    case MemcOp::kError:
        reply = rq.message.empty() ? memc_reply_error()
                                   : std::move(rq.message);
        break;
    }
    // Inline answers ride the reorder buffer too, so they cannot
    // overtake an older reply still at the owner.
    ++served_inline_;
    release(c, seq, std::move(reply));
}

void
MemcFrontend::complete(uint64_t conn_id, uint64_t seq, std::string reply)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    Conn& c = *it->second;
    IDO_ASSERT(c.inflight > 0, "completion without an in-flight request");
    --c.inflight;
    if (c.fd >= 0) {
        release(c, seq, std::move(reply));
        mark_dirty(c);
    } else if (c.inflight == 0) {
        defunct_.push_back(conn_id);
    }
}

void
MemcFrontend::release(Conn& c, uint64_t seq, std::string reply)
{
    if (seq != c.next_release) {
        c.reorder.emplace(seq, std::move(reply));
        return;
    }
    c.out += reply;
    ++c.next_release;
    auto it = c.reorder.begin();
    while (it != c.reorder.end() && it->first == c.next_release) {
        c.out += it->second;
        ++c.next_release;
        it = c.reorder.erase(it);
    }
}

void
MemcFrontend::mark_dirty(Conn& c)
{
    if (!c.dirty) {
        c.dirty = true;
        dirty_.push_back(c.id);
    }
}

void
MemcFrontend::end_turn()
{
    // No Conn& frame is on the stack here, so this is the one point
    // where flushing may close a conn and shells may be erased.  A
    // dirty conn may have closed (or been reaped) since it was marked.
    for (uint64_t id : dirty_) {
        auto it = conns_.find(id);
        if (it == conns_.end())
            continue;
        Conn& c = *it->second;
        c.dirty = false;
        if (c.fd >= 0)
            flush(c); // may close (write error / drained close)
    }
    dirty_.clear();
    for (uint64_t id : defunct_)
        conns_.erase(id);
    defunct_.clear();
}

void
MemcFrontend::flush(Conn& c)
{
    while (!c.out.empty()) {
        const ssize_t n =
            ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
        if (n > 0) {
            reply_writes_->fetch_add(1, std::memory_order_relaxed);
            c.out.erase(0, static_cast<size_t>(n));
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        close(c);
        return;
    }
    if (c.closing && c.out.empty() && c.next_release == c.next_seq) {
        close(c);
        return;
    }
    const size_t now = c.out.size();
    // Unsigned wrap-around makes a shrink subtract.
    pending_out_.fetch_add(now - c.out_accounted, std::memory_order_relaxed);
    c.out_accounted = now;
    // A closing conn reads no more: at EOF a level-triggered EPOLLIN
    // would fire on every loop turn until the last reply went out.
    const uint32_t want =
        (c.closing ? 0u : EPOLLIN) | (now != 0 ? EPOLLOUT : 0u);
    if (want != c.events) {
        c.events = want;
        loop_.mod(c.fd, want);
    }
}

void
MemcFrontend::close(Conn& c)
{
    if (c.fd < 0)
        return;
    trace::emit(trace::EventKind::kConnClose, c.id, c.next_release);
    loop_.del(c.fd);
    ::close(c.fd);
    c.fd = -1;
    c.alive.store(false, std::memory_order_relaxed);
    c.out.clear();
    c.reorder.clear();
    pending_out_.fetch_sub(c.out_accounted, std::memory_order_relaxed);
    c.out_accounted = 0;
    conn_count_.fetch_sub(1, std::memory_order_relaxed);
    // Never erase here: callers up the stack still hold a Conn&.  With
    // requests at the owner the shell stays until the last complete().
    if (c.inflight == 0)
        defunct_.push_back(c.id);
}

} // namespace ido::net
