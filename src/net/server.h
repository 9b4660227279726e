/**
 * @file
 * ido-serve: a memcached-text-protocol server whose storage engine is
 * memcached_mini running under the iDO FASE runtime.
 *
 * Threading model:
 *  - one EventLoop thread owns all sockets (accept, parse, reply);
 *  - N McShardWorker threads, one per McShard, execute FASEs.  The
 *    loop routes each request by MemcachedMini::shard_index(), so each
 *    shard's lock is thread-private -- the group-persist contract.
 *
 * Reply ordering: the memcached text protocol has no request ids, so
 * replies on a connection must go out in request order even though
 * requests fan out to different shards.  Each connection stamps
 * requests with a sequence number and holds completed replies in a
 * reorder buffer until every earlier reply has been written.
 *
 * Durability: a worker publishes a batch's replies only after its
 * batch-close fence (group_commit.h), so any byte a client reads
 * implies the whole batch's region outputs are persistent.  Killing
 * the process at any instant loses at most unacknowledged requests.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/admin.h"
#include "net/event_loop.h"
#include "net/memc_protocol.h"
#include "net/shard.h"

namespace ido::rt {
class Runtime;
}

namespace ido::net {

struct ServerConfig
{
    uint16_t port = 0;        ///< 0: kernel-assigned; see Server::port()
    uint32_t shards = 4;      ///< == McShard count, 1..7
    uint32_t batch_limit = 16; ///< K: group-persist batch size (1 = stock)
    uint64_t nbuckets = 256;  ///< hash buckets per shard (power of two)
    bool admin = false;       ///< serve /metrics, /stats.json, /recovery
    uint16_t admin_port = 0;  ///< 0: kernel-assigned; see admin_port()

    /**
     * Replication (ido-cluster): when replica_port != 0 this server is
     * a *primary* -- every shard worker forwards its batch's mutations
     * to the replica (itself a stock ido_serve) after the local
     * batch-close fence, and releases the batch's replies only once
     * the replica acknowledged them all.  A client ack then implies
     * durability on two heaps.
     */
    std::string replica_host = "127.0.0.1";
    uint16_t replica_port = 0; ///< 0: replication off

    /**
     * Test injection: sleep this long after each batch's fence before
     * publishing replies.  Lets the replication tests prove acks wait
     * for the replica (run the *replica* with a publish delay and the
     * primary's acks must inherit it).
     */
    uint32_t publish_delay_ms = 0;
};

class Server
{
  public:
    /**
     * Bind + listen and create (or reattach to) the McRoot in the
     * runtime's heap at RootSlot::kAppRoot.  On reattach the shard
     * count stored in the durable root wins over cfg.shards, so a
     * restarted server always matches the data it recovers.
     */
    Server(rt::Runtime& rt, const ServerConfig& cfg);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /** The bound port (useful when cfg.port was 0). */
    uint16_t port() const { return port_; }

    /** Bound admin port; 0 when cfg.admin was false. */
    uint16_t admin_port() const
    {
        return admin_ ? admin_->port() : 0;
    }

    uint64_t root_off() const { return root_off_; }

    /** Serve until stop(); blocks the calling thread. */
    void run();

    /** Shut down: callable from any thread or a signal handler. */
    void stop();

    /** Requests fully executed across all shards (after run() returns). */
    uint64_t requests_served() const;

  private:
    struct Conn
    {
        int fd = -1;
        uint64_t id = 0;
        MemcParser parser;
        std::string out;          ///< bytes awaiting write
        uint64_t next_seq = 0;    ///< next request sequence to assign
        uint64_t next_release = 0; ///< next sequence to put on the wire
        std::map<uint64_t, std::string> reorder; ///< done, out-of-order
        uint64_t inflight = 0;    ///< submitted, reply not yet released
        uint64_t served = 0;
        size_t out_accounted = 0; ///< c.out bytes counted in pending_out_
        bool closing = false;     ///< quit seen: close once drained
        bool want_write = false;  ///< EPOLLOUT currently requested
    };

    void on_accept(uint32_t events);
    void on_conn_event(uint64_t conn_id, uint32_t events);
    void read_conn(Conn& c);
    void route_request(Conn& c, MemcRequest&& rq);
    void local_reply(Conn& c, uint64_t seq, std::string data);
    void release_ready(Conn& c);
    void flush_out(Conn& c);
    void close_conn(Conn& c);
    void reap_defunct();
    void drain_completions();
    void account_pending(Conn& c);
    std::string stats_reply();

    rt::Runtime& rt_;
    ServerConfig cfg_;
    uint64_t root_off_ = 0;
    int listen_fd_ = -1;
    uint16_t port_ = 0;

    EventLoop loop_;
    std::vector<std::unique_ptr<McShardWorker>> workers_;

    std::mutex done_mu_;
    std::vector<ShardReply> done_; ///< worker -> loop completions

    std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
    /// Closed conns with nothing in flight; erased from conns_ by
    /// reap_defunct() at the end of each loop callback, never while a
    /// Conn& is live.
    std::vector<uint64_t> defunct_;
    uint64_t next_conn_id_ = 1;
    uint64_t served_on_loop_ = 0; ///< version/quit/errors answered inline

    // ido-stat: admin plane + gauges readable from the scrape side.
    std::unique_ptr<AdminEndpoint> admin_;
    std::atomic<uint64_t> conn_count_{0};
    std::atomic<uint64_t> pending_out_{0}; ///< un-written reply bytes
};

} // namespace ido::net
