#include "net/shard.h"

#include <atomic>
#include <chrono>
#include <iterator>
#include <thread>

#include "apps/memcached_mini.h"
#include "common/panic.h"
#include "net/memc_client.h"
#include "net/memc_protocol.h"
#include "runtime/runtime.h"
#include "stats/metrics.h"
#include "stats/persist_stats.h"
#include "stats/stat_plane.h"

namespace ido::net {

McShardWorker::McShardWorker(rt::Runtime& rt, const ShardConfig& cfg,
                             PublishFn publish)
    : rt_(rt), cfg_(cfg), publish_(std::move(publish))
{
    MetricsRegistry::instance().register_gauge(
        "net.shard." + std::to_string(cfg_.index) + ".queue_depth",
        [this] { return queue_depth_.load(std::memory_order_relaxed); });
}

McShardWorker::~McShardWorker()
{
    stop();
    // The gauge captures `this`; it must not outlive the worker.
    MetricsRegistry::instance().unregister_gauge(
        "net.shard." + std::to_string(cfg_.index) + ".queue_depth");
}

void
McShardWorker::start()
{
    thread_ = std::thread([this] { thread_main(); });
}

void
McShardWorker::submit(std::vector<ShardJob>& jobs)
{
    const size_t n = jobs.size();
    {
        std::lock_guard<std::mutex> g(mu_);
        queue_.insert(queue_.end(), std::make_move_iterator(jobs.begin()),
                      std::make_move_iterator(jobs.end()));
    }
    jobs.clear();
    queue_depth_.fetch_add(n, std::memory_order_relaxed);
    cv_.notify_one();
}

void
McShardWorker::stop()
{
    {
        std::lock_guard<std::mutex> g(mu_);
        if (stopping_ && !thread_.joinable())
            return;
        stopping_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable())
        thread_.join();
}

bool
McShardWorker::stopping_now()
{
    std::lock_guard<std::mutex> g(mu_);
    return stopping_;
}

void
McShardWorker::thread_main()
{
    // The RuntimeThread is created *here* so its durable log record
    // and trace ring belong to this worker thread.
    std::unique_ptr<rt::RuntimeThread> th = rt_.make_thread();
    IDO_ASSERT(rt_.allocator().block_type(cfg_.root_off)
                   == nvm::TypeId::kMcRoot,
               "shard worker handed a root that is not a memcached root");
    apps::MemcachedMini cache(th->heap(), cfg_.root_off);
    GroupCommit committer(*th, cfg_.batch_limit, cfg_.index);

    static std::atomic<uint64_t>& net_requests =
        *MetricsRegistry::instance().counter("net.requests");

    // ido-stat instruments: per-op end-to-end latency plus its
    // queue-wait / execute / fence-publish decomposition.  Pointers
    // are cached once; recording is wait-free per-thread shards.
    auto& reg = MetricsRegistry::instance();
    LatencyRecorder* const lat_get = reg.latency("net.lat.req.get");
    LatencyRecorder* const lat_set = reg.latency("net.lat.req.set");
    LatencyRecorder* const lat_del = reg.latency("net.lat.req.delete");
    LatencyRecorder* const lat_queue = reg.latency("net.lat.queue");
    LatencyRecorder* const lat_exec = reg.latency("net.lat.exec");
    LatencyRecorder* const lat_publish = reg.latency("net.lat.publish");
    const uint64_t slow_ns = stat_slow_threshold_ns();
    uint64_t last_exec_end_ns = 0;
    uint64_t batches_since_fold = 0;

    // Replication (ido-cluster): this worker's private connection to
    // the replica, plus the cluster.* accounting.  Forwarding happens
    // after the local batch-close fence and before any reply is
    // published, so a client ack certifies durability on both heaps.
    const bool replicate = cfg_.replica_port != 0;
    MemcClient replica;
    std::atomic<uint64_t>* const rep_batches =
        replicate ? reg.counter("cluster.replica.batches") : nullptr;
    std::atomic<uint64_t>* const rep_requests =
        replicate ? reg.counter("cluster.replica.requests") : nullptr;
    std::atomic<uint64_t>* const rep_resends =
        replicate ? reg.counter("cluster.replica.resends") : nullptr;
    std::atomic<uint64_t>* const rep_reconnects =
        replicate ? reg.counter("cluster.replica.reconnects") : nullptr;
    LatencyRecorder* const lat_replica =
        replicate ? reg.latency("net.lat.replica_ack") : nullptr;

    /**
     * Push the batch's mutations to the replica and wait for its
     * durable acks.  One pipelined flight per batch: K-deep batches
     * amortize the network round trip exactly like they amortize
     * fences.  A dead replica blocks the acks (the availability
     * contract) -- we reconnect with backoff and resend the whole
     * batch, which is safe at-least-once: a set rewrites the same
     * value, a re-delete acks NOT_FOUND.  The retry loop is reserved
     * for transport faults (disconnect/send/timeout); a replica that
     * stays up and *answers* SERVER_ERROR or garbage is divergence --
     * resending the identical batch can never succeed, and acking the
     * client without the replica copy would break the durable-prefix
     * contract, so that panics instead of wedging the shard.  Returns
     * false only when the worker is stopping and the replica is
     * unreachable; the caller must then drop the replies unpublished
     * (no client ack).
     */
    const auto forward_to_replica =
        [&](const std::vector<ShardJob>& jobs) -> bool {
        size_t nmut = 0;
        for (const ShardJob& j : jobs)
            if (j.req.op == MemcOp::kSet || j.req.op == MemcOp::kDelete)
                ++nmut;
        if (nmut == 0)
            return true; // read-only batch: no round trip at all
        const uint64_t t0 = stat_enabled() ? stat_now_ns() : 0;
        for (;;) {
            if (!replica.connected()) {
                if (!replica.connect_retry(cfg_.replica_host,
                                           cfg_.replica_port,
                                           /*attempts=*/25,
                                           /*backoff_ms=*/20)) {
                    if (stopping_now())
                        return false;
                    continue; // keep riding out the replica restart
                }
                rep_reconnects->fetch_add(1, std::memory_order_relaxed);
            }
            for (const ShardJob& j : jobs) {
                if (j.req.op == MemcOp::kSet)
                    replica.pipeline_set(j.req.key, j.req.value);
                else if (j.req.op == MemcOp::kDelete)
                    replica.pipeline_del(j.req.key);
            }
            if (replica.pipeline_flush() == nmut)
                break; // every mutation durable on the replica
            const ClientError err = replica.last_error();
            if (err == ClientError::kServerError
                || err == ClientError::kProtocol) {
                panic("replica %s:%u refused a mutation (%s): "
                      "primary/replica divergence, cannot certify the "
                      "durable-prefix ack",
                      cfg_.replica_host.c_str(), cfg_.replica_port,
                      client_error_name(err));
            }
            replica.close(); // node down / torn reply: resend all
            rep_resends->fetch_add(1, std::memory_order_relaxed);
            if (stopping_now())
                return false;
        }
        if (t0 != 0)
            lat_replica->record(stat_now_ns() - t0);
        rep_batches->fetch_add(1, std::memory_order_relaxed);
        rep_requests->fetch_add(nmut, std::memory_order_relaxed);
        return true;
    };

    const GroupCommit::Exec exec = [&](const ShardJob& job) -> std::string {
        const MemcRequest& rq = job.req;
        auto [lo, hi] = memc_key_words(rq.key);
        // Thread-privacy guard: the loop must never route a key here
        // that another worker's shard owns (the group contract).
        IDO_ASSERT(cache.shard_index(lo, hi) == cfg_.index,
                   "request routed to the wrong shard worker");
        net_requests.fetch_add(1, std::memory_order_relaxed);
        // A batch runs its jobs back to back: one clock read per job,
        // the previous job's end is this one's start.
        const uint64_t t0 = job.t_enqueue_ns == 0 ? 0
                            : last_exec_end_ns != 0 ? last_exec_end_ns
                                                    : stat_now_ns();
        std::string reply;
        switch (rq.op) {
        case MemcOp::kSet:
            cache.set(*th, lo, hi, rq.value);
            reply = memc_reply_stored();
            break;
        case MemcOp::kGet: {
            uint64_t value = 0;
            if (cache.get(*th, lo, hi, &value))
                reply = memc_reply_value(rq.key, rq.flags, value);
            else
                reply = memc_reply_miss();
            break;
        }
        case MemcOp::kDelete:
            reply = memc_reply_deleted(cache.del(*th, lo, hi));
            break;
        default:
            reply = memc_reply_error();
            break;
        }
        if (t0 != 0) {
            last_exec_end_ns = stat_now_ns();
            lat_exec->record(last_exec_end_ns - t0);
        }
        return reply;
    };

    std::vector<ShardJob> batch;
    std::vector<ShardReply> replies;
    std::vector<ShardReply> dropped;
    for (;;) {
        {
            std::unique_lock<std::mutex> g(mu_);
            cv_.wait(g, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty() && stopping_)
                break;
            // Take up to K live jobs; a closed connection's jobs are
            // skipped on the way (never executed, never acked).
            while (!queue_.empty() && batch.size() < cfg_.batch_limit) {
                ShardJob& j = queue_.front();
                if (j.alive == nullptr
                    || j.alive->load(std::memory_order_relaxed))
                    batch.push_back(std::move(j));
                else
                    dropped.push_back({j.conn_id, j.seq, {}});
                queue_.pop_front();
            }
        }
        queue_depth_.fetch_sub(batch.size() + dropped.size(),
                               std::memory_order_relaxed);
        if (!dropped.empty()) {
            // Empty completions: the front-end only counts them down.
            if (publish_)
                publish_(std::move(dropped));
            dropped.clear();
        }
        if (batch.empty())
            continue;
        // Queue-wait phase ends for every job in the batch now, when
        // the worker picks it up (jobs routed with stats off carry
        // t_enqueue_ns == 0 and are skipped entirely).
        if (!batch.empty() && batch.front().t_enqueue_ns != 0) {
            const uint64_t t_pickup = stat_now_ns();
            for (const ShardJob& j : batch)
                if (j.t_enqueue_ns != 0 && t_pickup > j.t_enqueue_ns)
                    lat_queue->record(t_pickup - j.t_enqueue_ns);
        }
        replies.clear();
        last_exec_end_ns = 0;
        committer.run_batch(batch, exec, &replies);
        // Injected publish delay (tests): the fence has retired but
        // the acks sit on this side of the wire a little longer.
        if (cfg_.publish_delay_ms != 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(cfg_.publish_delay_ms));
        // Replicated durable-prefix ack: no reply may be released
        // before the replica acknowledged the batch's mutations.  The
        // wait lands in net.lat.publish below, where it belongs -- it
        // is part of the time a client waits for its durable ack.
        bool release = true;
        if (replicate)
            release = forward_to_replica(batch);
        if (last_exec_end_ns != 0) {
            // run_batch has retired the batch-close fence by now: the
            // gap since the last job's execute end is the group-commit
            // publish phase, shared by every job in the batch.
            const uint64_t t_done = stat_now_ns();
            lat_publish->record(t_done - last_exec_end_ns);
            for (const ShardJob& j : batch) {
                if (j.t_enqueue_ns == 0 || t_done <= j.t_enqueue_ns)
                    continue;
                const uint64_t total = t_done - j.t_enqueue_ns;
                switch (j.req.op) {
                case MemcOp::kGet:
                    lat_get->record(total);
                    break;
                case MemcOp::kSet:
                    lat_set->record(total);
                    break;
                case MemcOp::kDelete:
                    lat_del->record(total);
                    break;
                default:
                    break;
                }
                if (slow_ns != 0 && total >= slow_ns)
                    stat_note_slow_request(
                        total, static_cast<uint32_t>(cfg_.index));
            }
        }
        served_ += batch.size();
        batch.clear();
        // Fold TLS persist counters into the registry on a coarse
        // cadence so a live `stats` / /metrics scrape sees fence and
        // flush traffic without waiting for worker exit.  Amortized to
        // five locked adds per 64 batches -- noise next to a fence.
        if (++batches_since_fold >= 64) {
            persist_counters_flush_tls();
            batches_since_fold = 0;
        }
        // run_batch returned, so the batch-close fence retired (and,
        // when replicating, the replica acked): the replies are safe
        // to release to clients.  release==false happens only during
        // shutdown with an unreachable replica -- those requests stay
        // unacknowledged, which the durability model permits.
        if (release && publish_ && !replies.empty())
            publish_(std::move(replies));
        replies.clear();
    }
    // Fold this thread's persist counters into the global registry
    // before the thread (and its TLS) goes away.
    persist_counters_flush_tls();
}

} // namespace ido::net
