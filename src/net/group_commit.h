/**
 * @file
 * Group-persist batcher: the reason ido-serve exists.
 *
 * iDO pays two persist fences per FASE region boundary plus one per
 * lock operation.  For a network server the client only observes
 * durability when the reply hits the wire, so fences covering pure
 * progress markers (recovery_pc advances, lock-ownership records) can
 * be deferred across a batch of pipelined requests and coalesced into
 * one batch-close fence, provided no reply is released before that
 * fence retires (IdoThread::begin/end_persist_group, ido_runtime.h).
 *
 * Durability contract (DESIGN.md Sec. 10): a reply implies the region
 * outputs of every request in the batch are persistent.  Crashing
 * mid-batch may lose *unacknowledged* requests -- each one either
 * replays from its durable activation record or vanishes atomically --
 * but never an acknowledged one, and never corrupts the cache.
 *
 * batch_limit == 1 runs the stock per-request protocol (no group mode
 * at all): that is the K=1 baseline in BENCH_server.json, and it keeps
 * "batch of one" semantically identical to an unbatched server.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/memc_protocol.h"

namespace ido::rt {
class RuntimeThread;
}

namespace ido::net {

/** One parsed request routed to a shard worker. */
struct ShardJob
{
    uint64_t conn_id = 0;
    uint64_t seq = 0; ///< per-connection sequence for in-order replies
    uint64_t t_enqueue_ns = 0; ///< stat_now_ns() at routing; 0 = untimed
    /// The connection's liveness flag (MemcFrontend::Submit); a job
    /// whose flag is clear is dropped unexecuted.  nullptr = always live.
    const std::atomic<bool>* alive = nullptr;
    MemcRequest req;
};

/** The wire-ready reply for one job. */
struct ShardReply
{
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    std::string data;
};

class GroupCommit
{
  public:
    /** Executes one job, returning its wire reply. */
    using Exec = std::function<std::string(const ShardJob&)>;

    GroupCommit(rt::RuntimeThread& th, uint32_t batch_limit,
                uint64_t shard_index);

    /**
     * Run every job in `jobs` (the caller bounds its size to the batch
     * limit), appending replies to `out`.  On return the batch-close
     * fence has retired: the caller may release the replies to
     * clients.  Never throws past a job -- exec must handle its own
     * protocol errors and reply accordingly.
     */
    void run_batch(const std::vector<ShardJob>& jobs, const Exec& exec,
                   std::vector<ShardReply>* out);

    uint32_t batch_limit() const { return batch_limit_; }

  private:
    rt::RuntimeThread& th_;
    uint32_t batch_limit_;
    uint64_t shard_index_;
};

} // namespace ido::net
