/**
 * @file
 * MemcFrontend: the client-facing memcached-text connection layer that
 * ido-serve (net::Server) and ido-router (cluster::Router) share.
 *
 * It owns everything between the listen socket and a data request:
 * accept, the per-connection incremental MemcParser, request sequence
 * numbers, the reorder buffer that releases replies strictly in
 * request order (the text protocol has no request ids), the output
 * buffer with EPOLLOUT flushing, and drain-then-close after `quit`, a
 * peer half-close or a framing error.  `version`, `quit`, `stats` and
 * parse errors are answered inline; only get/set/delete reach the
 * owner, through the submit callback, stamped (conn_id, seq).  The
 * owner answers each with complete() on the loop thread -- possibly
 * from inside submit itself, as the router's fail-fast path does.
 *
 * Reclamation is deferred: a closed connection stays as a shell until
 * every submitted request completed, and it is erased only when no
 * front-end frame holding a Conn& is on the stack.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/memc_protocol.h"

namespace ido::net {

class MemcFrontend
{
  public:
    /** A get/set/delete for the owner; answered by complete(). */
    using Submit =
        std::function<void(uint64_t conn_id, uint64_t seq, MemcRequest&&)>;
    /** Runs after each read burst was dispatched (the router flushes
     *  its upstreams here so a client pipeline stays one write). */
    using BurstEnd = std::function<void()>;

    /** Bind + listen on loopback:`port` (0 = kernel-assigned). */
    MemcFrontend(EventLoop& loop, uint16_t port, const char* what,
                 Submit submit, BurstEnd burst_end = nullptr);
    ~MemcFrontend();

    MemcFrontend(const MemcFrontend&) = delete;
    MemcFrontend& operator=(const MemcFrontend&) = delete;

    uint16_t port() const { return port_; }

    /** Register / deregister the listener with the loop. */
    void start();
    void stop();

    /**
     * The owner's reply to request `seq` of `conn_id` (loop thread).
     * For a connection that has closed meanwhile it only counts down
     * the in-flight requests.
     */
    void complete(uint64_t conn_id, uint64_t seq, std::string reply);

    /** Open connections (any thread). */
    uint64_t conns() const
    {
        return conn_count_.load(std::memory_order_relaxed);
    }
    /** Reply bytes queued but not yet written (any thread). */
    uint64_t pending_out_bytes() const
    {
        return pending_out_.load(std::memory_order_relaxed);
    }
    /** Requests answered inline: version/quit/stats/errors. */
    uint64_t served_inline() const { return served_inline_; }

  private:
    struct Conn
    {
        int fd = -1;
        uint64_t id = 0;
        MemcParser parser;
        std::string out;           ///< bytes awaiting write
        size_t out_accounted = 0;  ///< out bytes counted in pending_out_
        uint64_t next_seq = 0;     ///< next request sequence to assign
        uint64_t next_release = 0; ///< next sequence to put on the wire
        std::map<uint64_t, std::string> reorder; ///< done, out-of-order
        uint64_t inflight = 0;     ///< submitted, not yet completed
        uint32_t events = 0;       ///< current epoll interest set
        /// No request after this point is served: quit, peer EOF or a
        /// framing error.  Reading stops; the conn closes once drained.
        bool closing = false;
    };

    void on_accept(uint32_t events);
    void on_event(uint64_t conn_id, uint32_t events);
    void read_burst(Conn& c);
    void dispatch(Conn& c, MemcRequest&& rq);
    void release(Conn& c, uint64_t seq, std::string reply);
    void flush(Conn& c);
    void close(Conn& c);
    void reap();

    EventLoop& loop_;
    Submit submit_;
    BurstEnd burst_end_;
    int listen_fd_ = -1;
    uint16_t port_ = 0;

    std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
    /// Closed conns with nothing in flight, erased by reap().
    std::vector<uint64_t> defunct_;
    /// True while on_event holds a Conn&: complete() must not reap.
    bool in_event_ = false;
    uint64_t next_conn_id_ = 1;
    uint64_t served_inline_ = 0;

    std::atomic<uint64_t> conn_count_{0};
    std::atomic<uint64_t> pending_out_{0};
};

} // namespace ido::net
