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
 * After each read burst the burst-end hook lets the owner hand the
 * whole burst on at once (the server: one queue hand-off per shard;
 * the router: one write per upstream).
 *
 * Writes are coalesced per loop turn: complete(), a read burst and
 * EPOLLOUT only release bytes into the connection's output buffer and
 * mark it dirty.  The loop's end-of-turn hook writes each dirty
 * connection once, so a batch of replies that completes in one turn
 * leaves as one send(); `net.reply_writes` counts those sends.
 *
 * Reclamation is deferred: a closed connection stays as a shell until
 * every submitted request completed, and it is erased only at the end
 * of a loop turn, when no front-end frame holding a Conn& is on the
 * stack.  Each connection carries a liveness flag, cleared when it
 * closes; the owner may skip work whose flag is clear, but must still
 * complete() it so the shell is reaped.
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
    /**
     * A get/set/delete for the owner; answered by complete().  `alive`
     * is the connection's liveness flag: it turns false when the
     * connection closes and stays readable (from any thread) until
     * this request is completed.
     */
    using Submit = std::function<void(uint64_t conn_id, uint64_t seq,
                                      const std::atomic<bool>* alive,
                                      MemcRequest&&)>;
    /** Runs after each read burst was dispatched, so the owner can
     *  hand the burst's requests on in one go. */
    using BurstEnd = std::function<void()>;

    /** Bind + listen on loopback:`port` (0 = kernel-assigned). */
    MemcFrontend(EventLoop& loop, uint16_t port, const char* what,
                 Submit submit, BurstEnd burst_end = nullptr);
    ~MemcFrontend();

    MemcFrontend(const MemcFrontend&) = delete;
    MemcFrontend& operator=(const MemcFrontend&) = delete;

    uint16_t port() const { return port_; }

    /** Register / deregister the listener and the end-of-turn write
     *  pass with the loop. */
    void start();
    void stop();

    /**
     * The owner's reply to request `seq` of `conn_id` (loop thread).
     * The reply goes out at the end of the loop turn.  For a
     * connection that has closed meanwhile it only counts down the
     * in-flight requests.
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
        bool dirty = false;        ///< queued for this turn's write pass
        /// Cleared by close(); submitted jobs point at it (Submit).
        std::atomic<bool> alive{true};
    };

    void on_accept(uint32_t events);
    void on_event(uint64_t conn_id, uint32_t events);
    void read_burst(Conn& c);
    void dispatch(Conn& c, MemcRequest&& rq);
    void release(Conn& c, uint64_t seq, std::string reply);
    void mark_dirty(Conn& c);
    /** The loop's end-of-turn hook: flush every dirty conn, reap. */
    void end_turn();
    void flush(Conn& c);
    void close(Conn& c);

    EventLoop& loop_;
    Submit submit_;
    BurstEnd burst_end_;
    int listen_fd_ = -1;
    uint16_t port_ = 0;

    std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
    /// Conns with bytes to write or state to settle this turn.
    std::vector<uint64_t> dirty_;
    /// Closed conns with nothing in flight, erased by end_turn().
    std::vector<uint64_t> defunct_;
    uint64_t next_conn_id_ = 1;
    uint64_t served_inline_ = 0;

    std::atomic<uint64_t> conn_count_{0};
    std::atomic<uint64_t> pending_out_{0};
    std::atomic<uint64_t>* reply_writes_ = nullptr; ///< net.reply_writes
};

} // namespace ido::net
