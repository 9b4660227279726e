#include "net/server.h"

#include "apps/memcached_mini.h"
#include "common/panic.h"
#include "nvm/persistent_heap.h"
#include "runtime/runtime.h"
#include "stats/metrics.h"
#include "stats/recovery_timeline.h"
#include "stats/stat_plane.h"

namespace ido::net {

Server::Server(rt::Runtime& rt, const ServerConfig& cfg)
    : rt_(rt), cfg_(cfg),
      // Binds before the constructor returns, so callers (and the port
      // file in ido_serve) can rely on the port being acquired.
      frontend_(
          loop_, cfg.port, "ido-serve",
          [this](uint64_t conn_id, uint64_t seq,
                 const std::atomic<bool>* alive, MemcRequest&& rq) {
              route_request(conn_id, seq, alive, std::move(rq));
          },
          [this] { hand_off(); })
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

    // ido-stat plane: loop-side gauges plus (optionally) the loopback
    // admin HTTP endpoint.  Both read only registry snapshots and
    // relaxed atomics -- a scrape never touches a shard lock.
    auto& reg = MetricsRegistry::instance();
    reg.register_gauge("net.conns", [this] { return frontend_.conns(); });
    reg.register_gauge("net.pending_out_bytes",
                       [this] { return frontend_.pending_out_bytes(); });
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
    auto& reg = MetricsRegistry::instance();
    reg.unregister_gauge("net.conns");
    reg.unregister_gauge("net.pending_out_bytes");
}

void
Server::run()
{
    workers_.clear();
    staged_.assign(cfg_.shards, {});
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
    frontend_.start();
    if (admin_)
        admin_->start(loop_);
    loop_.run();
    if (admin_)
        admin_->stop();
    frontend_.stop();

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
    uint64_t n = frontend_.served_inline();
    for (const auto& w : workers_)
        n += w->requests_served();
    return n;
}

void
Server::route_request(uint64_t conn_id, uint64_t seq,
                      const std::atomic<bool>* alive, MemcRequest&& rq)
{
    apps::MemcachedMini cache(rt_.heap(), root_off_);
    auto [lo, hi] = memc_key_words(rq.key);
    const uint64_t shard = cache.shard_index(lo, hi);
    ShardJob& job = staged_[shard].emplace_back();
    job.conn_id = conn_id;
    job.seq = seq;
    job.alive = alive;
    // Stamp the ido-stat clock here -- parse time, once per read burst
    // -- so the end-to-end latency covers queue-wait, execute, and the
    // group-commit publish fence.  0 keeps the workers' timing paths
    // entirely cold when the plane is off.
    if (burst_t_ns_ == 0 && stat_enabled())
        burst_t_ns_ = stat_now_ns();
    job.t_enqueue_ns = burst_t_ns_;
    job.req = std::move(rq);
}

void
Server::hand_off()
{
    for (size_t i = 0; i < staged_.size(); ++i)
        if (!staged_[i].empty())
            workers_[i]->submit(staged_[i]);
    burst_t_ns_ = 0;
}

void
Server::drain_completions()
{
    std::vector<ShardReply> done;
    {
        std::lock_guard<std::mutex> g(done_mu_);
        done.swap(done_);
    }
    for (ShardReply& r : done)
        frontend_.complete(r.conn_id, r.seq, std::move(r.data));
}

} // namespace ido::net
