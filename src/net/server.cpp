#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "apps/memcached_mini.h"
#include "common/panic.h"
#include "nvm/persistent_heap.h"
#include "runtime/runtime.h"
#include "stats/metrics.h"
#include "stats/recovery_timeline.h"
#include "stats/stat_plane.h"
#include "trace/trace.h"

namespace ido::net {

Server::Server(rt::Runtime& rt, const ServerConfig& cfg) : rt_(rt), cfg_(cfg)
{
    IDO_ASSERT(cfg_.shards >= 1 && cfg_.shards <= 7,
               "shards must be 1..7 (McRoot capacity)");

    // Create or adopt the durable cache root.  A restarted server must
    // use the shard count the data was created with, whatever the
    // command line says, or keys would re-hash onto the wrong shards.
    nvm::PersistentHeap& heap = rt_.heap();
    root_off_ = nvm::RootRegistry::get_ref(heap, nvm::RootSlot::kAppRoot);
    if (root_off_ == 0) {
        std::unique_ptr<rt::RuntimeThread> th = rt_.make_thread();
        root_off_ = apps::MemcachedMini::create(*th, cfg_.shards,
                                                cfg_.nbuckets);
        nvm::RootRegistry::set_ref(heap, nvm::RootSlot::kAppRoot,
                                   root_off_, rt_.domain());
    } else {
        apps::MemcachedMini cache(heap, root_off_);
        cfg_.shards = static_cast<uint32_t>(cache.nshards());
    }

    // Bind before the constructor returns so callers (and the port
    // file in ido_serve) can rely on the port being acquired.
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
    IDO_ASSERT(rc == 0, "bind() failed (port in use?)");
    rc = ::listen(listen_fd_, 128);
    IDO_ASSERT(rc == 0, "listen() failed");
    socklen_t alen = sizeof addr;
    rc = ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                       &alen);
    IDO_ASSERT(rc == 0, "getsockname() failed");
    port_ = ntohs(addr.sin_port);
    set_nonblocking(listen_fd_);

    // ido-stat plane: loop-side gauges plus (optionally) the loopback
    // admin HTTP endpoint.  Both read only registry snapshots and
    // relaxed atomics -- a scrape never touches a shard lock.
    auto& reg = MetricsRegistry::instance();
    reg.register_gauge("net.conns", [this] {
        return conn_count_.load(std::memory_order_relaxed);
    });
    reg.register_gauge("net.pending_out_bytes", [this] {
        return pending_out_.load(std::memory_order_relaxed);
    });
    if (cfg_.admin) {
        admin_ = std::make_unique<AdminEndpoint>(cfg_.admin_port);
        admin_->route("/metrics",
                      "text/plain; version=0.0.4; charset=utf-8",
                      [] { return stat_prometheus_text(); });
        admin_->route("/stats.json", "application/json", [] {
            return MetricsRegistry::instance().format_json();
        });
        admin_->route("/recovery", "application/json", [] {
            return RecoveryTimeline::instance().to_json();
        });
        admin_->route("/healthz", "text/plain",
                      [] { return std::string("ok\n"); });
    }
}

Server::~Server()
{
    for (auto& w : workers_)
        if (w)
            w->stop();
    for (auto& [id, c] : conns_)
        if (c->fd >= 0)
            ::close(c->fd);
    if (listen_fd_ >= 0)
        ::close(listen_fd_);
    auto& reg = MetricsRegistry::instance();
    reg.unregister_gauge("net.conns");
    reg.unregister_gauge("net.pending_out_bytes");
}

void
Server::run()
{
    workers_.clear();
    for (uint32_t i = 0; i < cfg_.shards; ++i) {
        ShardConfig sc;
        sc.index = i;
        sc.batch_limit = cfg_.batch_limit;
        sc.root_off = root_off_;
        sc.replica_host = cfg_.replica_host;
        sc.replica_port = cfg_.replica_port;
        sc.publish_delay_ms = cfg_.publish_delay_ms;
        auto publish = [this](std::vector<ShardReply>&& replies) {
            {
                std::lock_guard<std::mutex> g(done_mu_);
                done_.insert(done_.end(),
                             std::make_move_iterator(replies.begin()),
                             std::make_move_iterator(replies.end()));
            }
            loop_.wake();
        };
        workers_.push_back(
            std::make_unique<McShardWorker>(rt_, sc, publish));
    }
    for (auto& w : workers_)
        w->start();

    loop_.set_wake_handler([this] { drain_completions(); });
    loop_.add(listen_fd_, EPOLLIN,
              [this](uint32_t ev) { on_accept(ev); });
    if (admin_)
        admin_->start(loop_);
    loop_.run();
    if (admin_)
        admin_->stop();
    loop_.del(listen_fd_);

    // Workers drain their queues before joining, then publish nothing
    // further; any stragglers in done_ have no one left to read them.
    for (auto& w : workers_)
        w->stop();
}

void
Server::stop()
{
    loop_.stop();
}

uint64_t
Server::requests_served() const
{
    uint64_t n = served_on_loop_;
    for (const auto& w : workers_)
        n += w->requests_served();
    return n;
}

void
Server::on_accept(uint32_t events)
{
    if (!(events & EPOLLIN))
        return;
    for (;;) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR)
                continue;
            return;
        }
        set_nonblocking(fd);
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        auto c = std::make_unique<Conn>();
        c->fd = fd;
        c->id = next_conn_id_++;
        const uint64_t id = c->id;
        conns_[id] = std::move(c);
        conn_count_.fetch_add(1, std::memory_order_relaxed);
        trace::emit(trace::EventKind::kConnOpen, id);
        loop_.add(fd, EPOLLIN,
                  [this, id](uint32_t ev) { on_conn_event(id, ev); });
    }
}

void
Server::on_conn_event(uint64_t conn_id, uint32_t events)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    Conn& c = *it->second;
    if (c.fd < 0) // closed shell awaiting its shard replies
        return;
    if (events & (EPOLLHUP | EPOLLERR))
        close_conn(c);
    if ((events & EPOLLOUT) && c.fd >= 0)
        flush_out(c); // may close_conn (write error / drained quit)
    if ((events & EPOLLIN) && c.fd >= 0)
        read_conn(c);
    reap_defunct();
}

void
Server::read_conn(Conn& c)
{
    char buf[16 * 1024];
    for (;;) {
        ssize_t n = ::read(c.fd, buf, sizeof buf);
        if (n > 0) {
            c.parser.feed(buf, static_cast<size_t>(n));
            continue;
        }
        if (n == 0) { // peer closed its write side
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
    MemcRequest rq;
    // A quit mid-burst closes the conn inside route_request; the shell
    // stays valid (deferred reap) but nothing after it may be served.
    while (c.fd >= 0 && c.parser.next(&rq))
        route_request(c, std::move(rq));
    if (c.fd < 0)
        return;
    if (c.parser.poisoned())
        c.closing = true;
    release_ready(c); // may close if closing && drained
}

void
Server::route_request(Conn& c, MemcRequest&& rq)
{
    const uint64_t seq = c.next_seq++;
    trace::emit(trace::EventKind::kNetRequest, c.id,
                static_cast<uint64_t>(rq.op));
    switch (rq.op) {
    case MemcOp::kGet:
    case MemcOp::kSet:
    case MemcOp::kDelete: {
        apps::MemcachedMini cache(rt_.heap(), root_off_);
        auto [lo, hi] = memc_key_words(rq.key);
        const uint64_t shard = cache.shard_index(lo, hi);
        ShardJob job;
        job.conn_id = c.id;
        job.seq = seq;
        // Stamp the ido-stat clock here -- parse time -- so the
        // end-to-end latency covers queue-wait, execute, and the
        // group-commit publish fence.  0 keeps the workers' timing
        // paths entirely cold when the plane is off.
        job.t_enqueue_ns = stat_enabled() ? stat_now_ns() : 0;
        job.req = std::move(rq);
        ++c.inflight;
        workers_[shard]->submit(std::move(job));
        return;
    }
    case MemcOp::kStats:
        ++served_on_loop_;
        local_reply(c, seq, stats_reply());
        return;
    case MemcOp::kVersion:
        ++served_on_loop_;
        local_reply(c, seq, memc_reply_version());
        return;
    case MemcOp::kQuit:
        ++served_on_loop_;
        c.closing = true;
        local_reply(c, seq, std::string());
        return;
    case MemcOp::kError:
        ++served_on_loop_;
        local_reply(c, seq,
                    rq.message.empty() ? memc_reply_error() : rq.message);
        return;
    }
}

void
Server::local_reply(Conn& c, uint64_t seq, std::string data)
{
    // Loop-thread-answered requests flow through the same reorder
    // buffer so they cannot overtake an older in-flight shard reply.
    c.reorder.emplace(seq, std::move(data));
    release_ready(c);
}

void
Server::release_ready(Conn& c)
{
    auto it = c.reorder.begin();
    while (it != c.reorder.end() && it->first == c.next_release) {
        c.out += it->second;
        ++c.next_release;
        ++c.served;
        it = c.reorder.erase(it);
    }
    flush_out(c);
}

void
Server::flush_out(Conn& c)
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
    account_pending(c);
    if (want != c.want_write) {
        c.want_write = want;
        loop_.mod(c.fd, EPOLLIN | (want ? EPOLLOUT : 0u));
    }
}

void
Server::account_pending(Conn& c)
{
    // Reconcile this connection's contribution to the pending-bytes
    // gauge with the current c.out size (called wherever out changes).
    const size_t now = c.out.size();
    if (now > c.out_accounted)
        pending_out_.fetch_add(now - c.out_accounted,
                               std::memory_order_relaxed);
    else if (now < c.out_accounted)
        pending_out_.fetch_sub(c.out_accounted - now,
                               std::memory_order_relaxed);
    c.out_accounted = now;
}

void
Server::close_conn(Conn& c)
{
    if (c.fd < 0)
        return;
    trace::emit(trace::EventKind::kConnClose, c.id, c.served);
    loop_.del(c.fd);
    ::close(c.fd);
    c.fd = -1;
    c.out.clear();
    account_pending(c);
    conn_count_.fetch_sub(1, std::memory_order_relaxed);
    // Never erase here: callers up the stack (read_conn's parse loop,
    // on_conn_event's flush-then-read sequence) still hold a Conn&.
    // reap_defunct() erases it once the event is handled; with shard
    // replies outstanding the shell stays until drain_completions
    // accounts the last one.
    if (c.inflight == 0)
        defunct_.push_back(c.id);
}

void
Server::reap_defunct()
{
    for (uint64_t id : defunct_)
        conns_.erase(id);
    defunct_.clear();
}

void
Server::drain_completions()
{
    std::vector<ShardReply> done;
    {
        std::lock_guard<std::mutex> g(done_mu_);
        done.swap(done_);
    }
    for (ShardReply& r : done) {
        auto it = conns_.find(r.conn_id);
        if (it == conns_.end())
            continue; // connection fully gone
        Conn& c = *it->second;
        IDO_ASSERT(c.inflight > 0, "completion without an in-flight request");
        --c.inflight;
        if (c.fd < 0) { // closed while the shard was working
            if (c.inflight == 0)
                conns_.erase(it);
            continue;
        }
        c.reorder.emplace(r.seq, std::move(r.data));
        release_ready(c); // may close_conn (drained quit)
    }
    reap_defunct();
}

std::string
Server::stats_reply()
{
    // memcached `stats` framing: STAT <key> <value> lines, then END.
    // Latency recorders expand into .count/.mean_ns/.p50_ns/... keys so
    // a text client sees percentiles without JSON parsing.
    const MetricsRegistry::Snapshot s =
        MetricsRegistry::instance().snapshot();
    std::string out;
    out.reserve(4096);
    for (const auto& [name, v] : s.counters)
        out += memc_reply_stat(name, std::to_string(v));
    for (const auto& [name, v] : s.gauges)
        out += memc_reply_stat(name, std::to_string(v));
    for (const auto& [name, h] : s.latencies) {
        out += memc_reply_stat(name + ".count",
                               std::to_string(h.total()));
        out += memc_reply_stat(
            name + ".mean_ns",
            std::to_string(static_cast<uint64_t>(h.mean())));
        out += memc_reply_stat(name + ".p50_ns",
                               std::to_string(h.percentile(0.50)));
        out += memc_reply_stat(name + ".p90_ns",
                               std::to_string(h.percentile(0.90)));
        out += memc_reply_stat(name + ".p99_ns",
                               std::to_string(h.percentile(0.99)));
        out += memc_reply_stat(name + ".p999_ns",
                               std::to_string(h.percentile(0.999)));
        out += memc_reply_stat(name + ".max_ns",
                               std::to_string(h.max_value()));
    }
    out += "END\r\n";
    return out;
}

} // namespace ido::net
